"""Build-on-first-use loader for the compiled loops in `_native.c`.

The library holds the rotation loops of the dense eigensolvers
(`spectral`), the '%.17g' row formatter behind every TSV writer
(`graph._write_rows`), `modembed_sweep`, one pass of the softmax or
sphere rule, which `sweep` prepares for the one kernel builder,
`clustering._kernel`, `modembed_apply`, the modularity operator's
Q @ H in one pass over the CSR rows, which `apply` calls for
`graph.ModularityMatrix.apply`, and `modembed_scan`, the one scanner
behind the edge-list, label and embedding readers, which `scan` calls;
each computes the same bytes as the Python code it stands in for.  The
scanner reads only files that the readers' line loops would read the
same way (ASCII, no NUL, '\\r', '\\x0b', '\\x0c' or '\\x1c'-'\\x1f', every
line well formed, every number of the form
`[+-]?digits[.digits][(e|E)[+-]digits]`) and leaves all others, errors
included, to the loops.  The sweep calls numpy's own inner loops for
exp, the reductions and the matrix products, which `numpy_loop` reads from
the ufunc objects.  `library()` compiles `_native.c` with the system C
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
    # Only a build needs these, and importing them costs every process
    # that finds its library cached about 15 ms.
    import subprocess
    import tempfile

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
    lib.modembed_sweep.argtypes = (
        ctypes.POINTER(_Operator), ctypes.c_void_p * 8, array, size, offsets,
        size, ctypes.c_int, ctypes.c_double, array)
    lib.modembed_sweep.restype = size
    vector = np.ctypeslib.ndpointer(np.float64, ndim=1,
                                    flags=("C_CONTIGUOUS", "ALIGNED"))
    lib.modembed_apply.argtypes = (ctypes.POINTER(_Operator), size, size,
                                   vector, vector, array)
    lib.modembed_apply.restype = None
    lib.modembed_scan.argtypes = (ctypes.c_int, ctypes.c_char_p, size,
                                  ctypes.POINTER(_Scan))
    lib.modembed_scan.restype = ctypes.c_int
    return lib


# The head of numpy's PyUFuncObject (numpy/_core/include/numpy/
# ufuncobject.h), up to the type table of its inner loops.
class _UFunc(ctypes.Structure):
    _fields_ = [("object_head", ctypes.c_char * object.__basicsize__),
                *((name, ctypes.c_int) for name in (
                    "nin", "nout", "nargs", "identity")),
                ("functions", ctypes.POINTER(ctypes.c_void_p)),
                ("data", ctypes.POINTER(ctypes.c_void_p)),
                ("ntypes", ctypes.c_int), ("reserved1", ctypes.c_int),
                ("name", ctypes.c_char_p), ("types", ctypes.c_void_p)]


_LOOP = ctypes.CFUNCTYPE(None, *(ctypes.POINTER(t) for t in (
    ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t)), ctypes.c_void_p)


def numpy_loop(ufunc, types):
    """(loop, data) addresses of the ufunc's inner loop for the dtype
    codes `types` (inputs then outputs, "dd" for np.exp), or None.

    They are read from the ufunc object and accepted only if its struct
    holds the ufunc's name, argument count and loop count and the loop,
    called on a fixed vector (a 3 x 11 by 11 x 3 product for matmul),
    reproduces the ufunc's bytes.  Other gufuncs give None.
    """
    if not isinstance(ufunc, np.ufunc) or len(types) != ufunc.nargs or (
            ufunc.signature not in (None, "(n?,k),(k,m?)->(n?,m?)")) or (
            type(ufunc).__basicsize__ < ctypes.sizeof(_UFunc)):
        return None
    head = _UFunc.from_address(id(ufunc))
    # The counts are read before the name pointer is followed.
    if (head.nargs, head.ntypes) != (ufunc.nargs, ufunc.ntypes) or (
            head.name != ufunc.__name__.encode()):
        return None
    wanted = bytes(np.dtype(code).num for code in types)
    table = ctypes.string_at(head.types, head.nargs * head.ntypes)
    for i in range(head.ntypes):
        if table[i * head.nargs:(i + 1) * head.nargs] == wanted:
            found = head.functions[i], head.data[i]
            return found if _probe(ufunc, types, *found) else None
    return None


def _probe(ufunc, types, loop, data):
    x = np.linspace(-4.0, 4.0, 33).astype(types[0])
    item = x.itemsize
    if ufunc.signature is None:
        operands, dims = [x, x[::-1].copy()][:ufunc.nin], (33,)
        steps = (item,) * ufunc.nargs
    else:
        operands, dims = [x.reshape(3, 11), x.reshape(11, 3)], (1, 3, 11, 3)
        steps = (0, 0, 0, 11 * item, item, 3 * item, item, 3 * item, item)
    want = ufunc(*operands)
    got = np.zeros(want.shape, types[-1])
    pointers = [a.ctypes.data for a in (*operands, got)]
    _LOOP(loop)((ctypes.c_void_p * len(pointers))(*pointers),
                (ctypes.c_ssize_t * len(dims))(*dims),
                (ctypes.c_ssize_t * len(steps))(*steps), data)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


class _Operator(ctypes.Structure):
    """The C struct modembed_operator."""
    _fields_ = [*((name, ctypes.c_void_p) for name in (
        "indptr", "indices", "data", "marginal", "x", "sq", "agg", "gather")),
        *((name, ctypes.c_ssize_t) for name in (
            "L", "x_row", "x_col", "agg_row", "agg_col"))]


def _graph_arrays(graph):
    """The graph's indptr, indices, data and marginal as the struct's
    pointers read them: C-contiguous ptrdiff_t and float64 arrays (the
    graph's own on 64-bit platforms)."""
    return [np.ascontiguousarray(a, dtype=dtype) for a, dtype in (
        (graph.indptr, np.intp), (graph.indices, np.intp),
        (graph.data, np.float64), (graph.marginal, np.float64))]


def sweep(rule, Q, H, aggregate, rows, weight):
    """visit() that runs the compiled `rule` on `rows` of the C-ordered
    float64 matrix H in order, or None when the library or a numpy loop
    is missing.

    The rule is "softmax" at inverse temperature `weight` or "sphere" at
    blend weight `weight`; visit() returns the degenerate rows skipped, 0
    for the softmax.  Q is a `ModularityMatrix` or a `GramOperator`.  H,
    Q and the aggregate may change only in place, but the aggregate's
    array (`S` or `W`) may be rebound: visit() reads and checks it on
    every call.
    """
    lib = library()
    found = [numpy_loop(np.matmul, "ddd"), numpy_loop(np.maximum, "ddd"),
             numpy_loop(np.exp, "dd"), numpy_loop(np.add, "ddd")]
    if lib is None or None in found:
        return None
    loops = (ctypes.c_void_p * 8)(*(loop for loop, _ in found),
                                  *(data for _, data in found))
    K = H.shape[1]
    graph = getattr(Q, "graph", None)
    if graph is not None:
        arrays = _graph_arrays(graph)
        degree = int(np.diff(arrays[0]).max(initial=0))
        op = _Operator(*(a.ctypes.data for a in arrays))
        shape, name = (K,), "S"
    else:
        arrays, degree = [Q.X, Q._sq], 0
        op = _Operator(x=Q.X.ctypes.data, L=Q.X.shape[1], x_row=Q.X.strides[0],
                       x_col=Q.X.strides[1], sq=Q._sq.ctypes.data)
        shape, name = Q.X.shape[1:] + (K,), "W"
    # Four K-vectors, then the gather buffer for the densest row.
    scratch = np.empty((4 + degree) * K)
    op.gather = scratch.ctypes.data + 4 * K * scratch.itemsize
    op.arrays = arrays  # what op points into lives as long as op
    rows = np.array(rows, dtype=np.intp)
    index = ("softmax", "sphere").index(rule)
    run = lib.modembed_sweep

    def visit():
        A = getattr(aggregate, name)
        if not (isinstance(A, np.ndarray) and A.dtype == np.float64 and
                A.shape == shape and A.flags.aligned and A.flags.writeable):
            raise ValueError(f"aggregate {name} must be a writeable "
                             f"float64 array of shape {shape}")
        op.agg, op.agg_col = A.ctypes.data, A.strides[-1]
        op.agg_row = A.strides[0] if A.ndim == 2 else 0
        return run(op, loops, H, K, rows, rows.size, index, weight, scratch)

    return visit


def apply(graph, H, c, diag):
    """Q @ H for the modularity operator of `graph`, as a new C-order
    array, from the float64 n x K block H (any strides), c = marginal @ H
    and the diagonal `diag`; None when the library is missing.  The bytes
    are those of `ModularityMatrix.apply`'s numpy path."""
    lib = library()
    if lib is None:
        return None
    if not H.flags.aligned:
        H = H.copy()
    arrays = _graph_arrays(graph)
    op = _Operator(*(a.ctypes.data for a in arrays), x=H.ctypes.data,
                   x_row=H.strides[0], x_col=H.strides[1])
    out = np.empty(H.shape)
    lib.modembed_apply(ctypes.byref(op), *H.shape, c, diag, out)
    return out


class _Scan(ctypes.Structure):
    """The C struct modembed_scan."""
    _fields_ = [*((name, ctypes.c_void_p) for name in (
        "ids", "values", "names", "classes")),
        *((name, ctypes.c_ssize_t) for name in (
            "rows", "columns", "names_size", "classes_size"))]


_SCAN_KINDS = ("edges", "labels", "rows")


def scan(kind, path):
    """The file at `path` as the compiled scanner reads it, or None when
    the library is missing or the scanner leaves the file to the Python
    loop, which gives the same result or raises the error.

    kind "edges" gives (ids, weights, labels) for an edge list: the two
    label ids of each edge as 2 m int64, the m weights and the distinct
    labels in first-appearance order.  "labels" gives (nodes, classes)
    for a label file: the distinct nodes in first-appearance order and
    the class of each.  "rows" gives (labels, values) for an embedding
    TSV: the row labels and the rows as an m x C float64 array.  Only
    regular files are scanned: the loop must be able to read a declined
    file again, which a pipe does not allow.
    """
    lib = library()
    if lib is None or not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        text = fh.read()
    # The sizes modembed_scan's contract asks for; pages never written
    # are never touched.
    lines = text.count(b"\n") + 1 if kind == "edges" else 0
    ids = np.empty(2 * lines, np.int64)
    values = np.empty(text.count(b"\t") if kind == "rows" else lines)
    names = np.empty(len(text) + 1, np.uint8)
    classes = np.empty(len(text) + 1 if kind == "labels" else 0, np.uint8)
    out = _Scan(*(a.ctypes.data for a in (ids, values, names, classes)))
    if not lib.modembed_scan(_SCAN_KINDS.index(kind), text, len(text),
                             ctypes.byref(out)):
        return None
    labels = _lines(names, out.names_size)
    if kind == "labels":
        return labels, _lines(classes, out.classes_size)
    if kind == "rows":
        return labels, values.reshape(out.rows, out.columns)
    return ids[:2 * out.rows], values[:out.rows], labels


def _lines(buffer, size):
    """The '\\n'-terminated ASCII lines in the first `size` bytes."""
    return str(memoryview(buffer)[:size], "ascii").split("\n")[:-1]
