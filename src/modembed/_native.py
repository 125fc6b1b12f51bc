"""Build-on-first-use loader for the compiled loops in `_native.c`.

The library holds the rotation loops of the dense eigensolvers
(`spectral`) and the '%.17g' row formatter behind every TSV writer
(`graph._write_rows`); each computes the same bytes as the Python code
it stands in for.  `library()` compiles `_native.c` with the system C
compiler the first time it is called, caches the shared library under
the user cache directory, keyed by the sha256 of the source, the flags
and the machine, and loads it with ctypes.  It returns None when no
compiler is found or the cache directory is not usable: not writable,
not owned by this user, or writable by anyone else, since whoever can
write there could plant a library this process would load.  Callers
then run their Python loops, which compute the same bytes.  Importing
this module compiles and loads nothing.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import tempfile

import numpy as np

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "_native.c")
# Fused multiply-adds (-ffp-contract, -march=native) and reassociation
# (-ffast-math) would round differently from the numpy loops; the row
# formatter's exact path is integer arithmetic.
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _cache_dir():
    """The private cache directory, created if missing, or None."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    directory = os.path.join(base, "modembed")
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        st = os.stat(directory)
    except OSError:
        return None
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        return None
    return directory


def _compile(key):
    """Path of the cached library, compiled first if missing; None when
    the cache directory is not usable or the compiler fails."""
    directory = _cache_dir()
    if directory is None:
        return None
    path = os.path.join(directory, f"_native-{key}.so")
    if os.path.isfile(path):
        return path
    try:
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    except OSError:
        return None
    os.close(fd)
    try:
        subprocess.run(["cc", *_FLAGS, "-o", tmp, _SOURCE, "-lm"],
                       check=True, capture_output=True)
        os.replace(tmp, path)
    except (OSError, subprocess.CalledProcessError):
        return None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


@functools.cache
def library():
    """The loaded ctypes library with its entry points declared, or
    None."""
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
    except OSError:
        return None
    digest = hashlib.sha256(source)
    digest.update(" ".join((*_FLAGS, platform.machine())).encode())
    path = _compile(digest.hexdigest()[:32])
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    array = np.ctypeslib.ndpointer(
        np.float64, flags=("C_CONTIGUOUS", "ALIGNED", "WRITEABLE"))
    size = ctypes.c_ssize_t
    lib.modembed_ql.argtypes = (size, size, array, array, array, size)
    lib.modembed_ql.restype = size
    lib.modembed_jacobi.argtypes = (size, array, array, ctypes.c_double,
                                    ctypes.c_double, size)
    lib.modembed_jacobi.restype = ctypes.c_int
    rows = np.ctypeslib.ndpointer(np.float64, ndim=2,
                                  flags=("C_CONTIGUOUS", "ALIGNED"))
    offsets = np.ctypeslib.ndpointer(np.intp, ndim=1,
                                     flags=("C_CONTIGUOUS", "ALIGNED"))
    lib.modembed_format_rows.argtypes = (size, size, rows, ctypes.c_char_p,
                                         offsets, ctypes.POINTER(ctypes.c_char))
    lib.modembed_format_rows.restype = size
    return lib
