"""Build-on-first-use loader for the compiled loops in `_native.c`, and
the one module that knows their C contracts.

Each entry point has one wrapper here, which returns None when the
library is missing; the Python code it stands in for computes the same
bytes and stays as the fallback and the tests' oracle:

- `ql`, `jacobi`: `modembed_ql` and `modembed_jacobi`, the rotation loops
  of the dense eigensolvers (`spectral`), on C-order arrays in place;
- `row_formatter`: `modembed_format_rows`, the '%.17g' rows of every TSV
  writer (`graph._write_rows`), in one buffer that it reuses;
- `sweep`: `modembed_sweep`, one softmax or sphere pass for
  `clustering._kernel`, over C-order arrays only; a softmax row with few
  nonzeros takes the exp over them alone, and at K >= 32 a neighbour
  with few nonzeros is scattered into the gather buffer, not copied;
- `householder`: `modembed_householder`, the two rank updates of each
  step of the Householder reduction (`spectral`), in place;
- `apply`, `objective`: `modembed_apply`, through one driver: Q @ H
  over a graph's own int64 CSR rows for `graph.ModularityMatrix.apply`,
  also storing the shifted block of orthogonal iteration column-major
  when asked, and tr(H^T Q H) for `clustering._objective`, which stores
  only H * (Q @ H); when H is mostly zeros, `modembed_objective` forms
  that product on H's support alone and sums it as np.sum does;
- `apply`, `objective` and `sweep` hand C the operator one way, the
  struct modembed_operator that `_operator(Q)` builds and checks;
- `scan`: `modembed_scan`, the scanner behind the edge-list, label and
  embedding readers; a label file's nodes are found among the labels
  of a scanned graph;
- `build`: `modembed_build`, a sampled graph's CSR arrays from its
  edges' label ids and weights, for `graph._from_ids`;
- `fit`: `modembed_fit`, every step of `tasks.SoftmaxRegression.fit`'s
  gradient descent in one call.

Each call records in `paths` which path it took, for the manifest.

The scanner reads only files that the readers' line loops would read the
same way (ASCII, no NUL, '\\r', '\\x0b', '\\x0c' or '\\x1c'-'\\x1f', every
line well formed, every number of the form
`[+-]?digits[.digits][(e|E)[+-]digits]`) and leaves all others, errors
included, to the loops.  The edge-list labels it reads come back as
`Labels`, which keep their bytes for the label scan and the row writer.
The sweep and the fit call numpy's own inner loops for exp, the
reductions and the matrix products, which `numpy_loop` reads from the
ufunc objects.
`library()` compiles `_native.c` with the system C compiler the first
time it is called, caches the shared library under the user cache
directory, keyed by the sha256 of the source, the flags and the machine,
and loads it with ctypes.  It returns None when no compiler is found or
the cache directory is not usable: not writable, not owned by this user,
or writable by anyone else, since whoever can write there could plant a
library this process would load.  Importing this module compiles and
loads nothing.
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
    flags = ("C_CONTIGUOUS", "ALIGNED")
    array = np.ctypeslib.ndpointer(np.float64, flags=(*flags, "WRITEABLE"))
    values = np.ctypeslib.ndpointer(np.float64, flags=flags)
    offsets = np.ctypeslib.ndpointer(np.intp, flags=flags)
    int64 = np.ctypeslib.ndpointer(np.int64, flags=flags)
    size, c_int, double = ctypes.c_ssize_t, ctypes.c_int, ctypes.c_double
    operator, loops = ctypes.POINTER(_Operator), ctypes.c_void_p * 8
    for name, restype, *argtypes in (
            ("ql", size, size, size, array, array, array, size),
            ("jacobi", c_int, size, array, array, double, double, size),
            ("format_rows", size, size, size, values, ctypes.c_char_p,
             offsets, ctypes.POINTER(ctypes.c_char)),
            ("sweep", size, operator, loops, array, size, offsets, size,
             c_int, double, array, offsets),
            ("householder", None, size, size, array, array, values,
             values, values, double),
            ("apply", None, operator, size, values, values, array, size,
             double, ctypes.c_void_p, ctypes.c_void_p),
            ("objective", c_int, operator, size, values, values, loops,
             ctypes.POINTER(double)),
            ("scan", c_int, c_int, ctypes.c_char_p, size, ctypes.c_char_p,
             size, ctypes.POINTER(_Scan)),
            ("build", c_int, size, size, int64, values,
             ctypes.POINTER(_Graph)),
            ("fit", None, loops, size, size, size, ctypes.c_void_p, size,
             size, values, size, double, double, array, array, array)):
        entry = getattr(lib, f"modembed_{name}")
        entry.restype, entry.argtypes = restype, argtypes
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


def _loops():
    """numpy's float64 matmul, maximum, exp and add loops as the C struct
    modembed_loops, or None when one is missing."""
    found = [numpy_loop(np.matmul, "ddd"), numpy_loop(np.maximum, "ddd"),
             numpy_loop(np.exp, "dd"), numpy_loop(np.add, "ddd")]
    if None in found:
        return None
    return (ctypes.c_void_p * 8)(*(loop for loop, _ in found),
                                 *(data for _, data in found))


def _openblas(*symbols):
    """The int that the first of `symbols` exported by a mapped OpenBLAS
    returns, or None when no mapped library exports one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(lib for lib in libs if lib.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, on which LAPACK's
    bytes depend, or None when no mapped library exports its getter."""
    return _openblas("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads")


def blas_thread_timeout():
    """The OPENBLAS_THREAD_TIMEOUT that the OpenBLAS numpy loaded read
    when it loaded, 0 when unset, or None when no mapped library exports
    its getter.  An idle worker spins for 2^value ticks (value clamped to
    4-30), 2^28 when unset; no byte depends on it."""
    return _openblas("openblas_thread_timeout")


# The path each entry point's calls took since the last clear(): "python"
# once any call fell back, else "compiled".  cli.main clears it per run.
paths = {}

def _recorded(wrapper):
    """`wrapper` recording its path in `paths`: a None result means the
    Python code runs instead."""
    @functools.wraps(wrapper)
    def call(*args, **kwargs):
        result = wrapper(*args, **kwargs)
        if paths.get(wrapper.__name__) != "python":
            paths[wrapper.__name__] = ("python" if result is None
                                       else "compiled")
        return result
    return call


@_recorded
def ql(d, e, zt, max_shifts):
    """`spectral._ql_loop(d, e, zt, max_shifts)` compiled."""
    lib = library()
    return None if lib is None else lib.modembed_ql(
        d.size, zt.shape[1], d, e, zt, max_shifts)


@_recorded
def jacobi(a, v, tol, scale, max_sweeps):
    """`spectral._jacobi_sweeps(a, v, tol, scale, max_sweeps)` compiled."""
    lib = library()
    return None if lib is None else bool(lib.modembed_jacobi(
        a.shape[0], a, v, tol, scale, max_sweeps))


@_recorded
def row_formatter():
    """format(block, names, offsets): `label<TAB>v1...<TAB>vC<LF>` per row
    of the block as float64, values as '%.17g', label i the bytes
    names[offsets[i]:offsets[i + 1]], in a buffer the next call reuses."""
    lib = library()
    if lib is None:
        return None
    buffer = ctypes.create_string_buffer(0)

    def format_rows(block, names, offsets):
        nonlocal buffer
        block = np.ascontiguousarray(block, dtype=np.float64)
        k, c = block.shape
        # The labels, at most 24 bytes a value (put_value's longest,
        # "-1.2345678901234567e-308") and a tab, and 2 bytes a row.
        need = int(offsets[-1] - offsets[0]) + k * (25 * c + 2)
        if len(buffer) < need:
            buffer = ctypes.create_string_buffer(need)
        written = lib.modembed_format_rows(k, c, block, names, offsets,
                                           buffer)
        if written < 0:
            raise MemoryError("no C locale for the row formatter")
        return memoryview(buffer)[:written]
    return format_rows


class _Operator(ctypes.Structure):
    """The C struct modembed_operator."""
    _fields_ = [*((name, ctypes.c_void_p) for name in (
        "indptr", "indices", "data", "x", "diag", "sq", "agg")),
        ("L", ctypes.c_ssize_t), ("n", ctypes.c_ssize_t)]


def _operator(Q):
    """The record by which every compiled pass reads Q, holding the
    arrays it points into: a `ModularityMatrix`'s CSR, marginal (x) and
    diagonal, or a `GramOperator`'s cloud (x) and squared row norms; the
    aggregate is left for the sweep to bind.  None when an array is not
    the C-order, aligned int64 or float64 one C reads: numpy runs then."""
    graph = getattr(Q, "graph", None)
    arrays = (dict(indptr=graph.indptr, indices=graph.indices,
                   data=graph.data, x=graph.marginal, diag=Q.diag)
              if graph is not None else dict(x=Q.X, sq=Q._sq))
    for name, a in arrays.items():
        dtype = np.int64 if name in ("indptr", "indices") else np.float64
        if not (isinstance(a, np.ndarray) and a.dtype == dtype and
                a.flags.c_contiguous and a.flags.aligned):
            return None
    x = arrays["x"]
    # The marginal is F as one column: L = 1.
    op = _Operator(**{name: a.ctypes.data for name, a in arrays.items()},
                   L=x.shape[1] if x.ndim == 2 else 1, n=Q.n)
    op.arrays = arrays  # what op points into lives as long as op
    return op


@_recorded
def sweep(rule, Q, H, aggregate, rows, weight):
    """visit() that runs the compiled `rule` on `rows` of the C-ordered
    float64 matrix H in order, or None when the library or a numpy loop
    is missing, or `_operator` declines Q or the aggregate is not a
    C-order array.

    The rule is "softmax" at inverse temperature `weight` or "sphere" at
    blend weight `weight`; visit() returns the degenerate rows skipped, 0
    for the softmax.  Q is a `ModularityMatrix`, whose marginal is F, or
    a `GramOperator`, whose cloud is.  The aggregate's array A = F^T H is
    checked and bound here, once; H, Q and A may then change only in
    place.
    """
    lib = library()
    loops = None if lib is None else _loops()
    op = None if loops is None else _operator(Q)
    if op is None:
        return None
    K = H.shape[1]
    if H.shape[0] != op.n:
        raise ValueError(f"expected {op.n} rows, got shape {H.shape}")
    A, shape = aggregate.A, (K,) if op.indptr else (op.L, K)
    if not (isinstance(A, np.ndarray) and A.dtype == np.float64 and
            A.shape == shape and A.flags.writeable):
        raise ValueError(f"aggregate A must be a writeable float64 array "
                         f"of shape {shape}")
    # The struct reads it row-major; the plain rules take the rest.
    if not (A.flags.c_contiguous and A.flags.aligned):
        return None
    op.agg, op.arrays["agg"] = A.ctypes.data, A
    degree = int(np.diff(Q.graph.indptr).max(initial=0)) if op.indptr else 0
    # Four K-vectors, then the gather buffer for the densest row.
    scratch = np.empty((4 + degree) * K)
    rows = np.array(rows, dtype=np.intp)
    # The softmax rows that read only their support and the neighbours
    # scattered from the gather table, counted for tests.
    counts = np.zeros(2, np.intp)
    args = (op, loops, H, K, rows, rows.size,
            ("softmax", "sphere").index(rule), weight, scratch, counts)
    return lambda: lib.modembed_sweep(*args)


@_recorded
def householder(t, b, k, v, p, w, k4):
    """One step of `spectral._householder_tridiagonalize` at column k,
    compiled: the updates of the C-order n x n float64 T (`t`) and B
    (`b`) in place from the reflector v, p = S v, w = A v and k4 = 4 v.p;
    None when the library is missing or T is not in C order.  The bytes
    are those of the step's numpy statements."""
    lib = library()
    n = t.shape[0]
    r = n - k - 1
    if lib is None or not t.flags.c_contiguous:
        return None
    if not (t.shape == b.shape == (n, n) and
            v.shape == p.shape == (r,) and w.shape == (n,)):
        raise ValueError("householder needs n x n T and B, v and p of "
                         "length n - k - 1 and w of length n")
    lib.modembed_householder(n, k, t, b, v, p, w, k4)
    return t, b


@_recorded
def apply(Q, H, c, shift=0.0, shifted=None, keep=True, product=None):
    """The one modembed_apply call: Q @ H for the `ModularityMatrix` Q
    and c = marginal @ H on the float64 n x K block H (any strides) as a
    new C-order array, or with keep=False only its last row (the pass
    then reuses one row), or None when the library is missing or
    `_operator` declines Q; the bytes of `Q.apply`'s numpy path.
    `shifted` (C-order K x n) also receives shift * H + Q @ H, transposed,
    as np.multiply then np.add give it, and `product` (C-order n x K)
    receives H * (Q @ H)."""
    lib = library()
    op = None if lib is None else _operator(Q)
    if op is None:
        return None
    # The pass gathers whole rows of H, so a column-major or strided H is
    # read from a C-order copy; the bytes do not depend on the layout.
    H = np.require(H, requirements="CA")
    n, k = H.shape
    for name, array, shape in (("shifted", shifted, (k, n)),
                               ("product", product, (n, k))):
        if array is not None and not (
                isinstance(array, np.ndarray) and
                array.dtype == np.float64 and array.shape == shape and
                array.flags.c_contiguous and array.flags.aligned and
                array.flags.writeable):
            raise ValueError(f"{name} must be a writeable C-order float64 "
                             f"array of shape {shape}")
    out = np.empty(H.shape if keep else (1, k))
    lib.modembed_apply(op, k, H, c, out, k if keep else 0, shift,
                       *(None if a is None else a.ctypes.data
                         for a in (shifted, product)))
    return out


@_recorded
def objective(Q, H):
    """tr(H^T Q H) for the `graph.ModularityMatrix` Q and the n x K block
    H of any layout, as `np.sum(H * Q.apply(H))` gives it, or None when
    the library is missing, `_operator` declines Q or H is not 2-D with
    n rows (numpy's path takes a column and rejects the rest).

    When a sample of H's rows shows it mostly exact zeros,
    `modembed_objective` forms Q @ H on H's support only and repeats
    np.sum's pairwise sum there, skipping the runs that hold no support
    entry; otherwise one pass stores H * (Q @ H) row by row, never
    Q @ H, and np.sum adds it up.  c = marginal @ H on H's own layout,
    as in `Q.apply`, stays numpy's, so no BLAS byte is redone.
    """
    H = np.asarray(H, dtype=float)
    lib = library()
    op = None if lib is None else _operator(Q)
    if op is None or H.ndim != 2 or H.shape[0] != op.n:
        return None
    c = Q.graph.marginal @ H
    H = np.require(H, requirements="CA")
    loops, total = _loops(), ctypes.c_double()
    if loops is not None and lib.modembed_objective(op, H.shape[1], H, c,
                                                    loops, total):
        return total.value
    product = np.empty(H.shape)
    # Unrecorded: the call is the objective's path, not the apply's.
    apply.__wrapped__(Q, H, c, keep=False, product=product)
    return float(np.sum(product))


class _Scan(ctypes.Structure):
    """The C struct modembed_scan."""
    _fields_ = [*((name, ctypes.c_void_p) for name in (
        "ids", "values", "names", "classes")),
        *((name, ctypes.c_ssize_t) for name in (
            "rows", "columns", "names_size", "classes_size"))]


_SCAN_KINDS = ("edges", "labels", "rows")


@_recorded
def scan(kind, path, nodes=None):
    """The file at `path` as the compiled scanner reads it, or None when
    the library is missing or the scanner leaves the file to the Python
    loop, which gives the same result or raises the error.

    kind "edges" gives (ids, weights, labels) for an edge list: the two
    label ids of each edge as 2 m int64, the m weights and the distinct
    labels in first-appearance order as `Labels`.  "labels" gives
    (indices, classes) for a label file naming the nodes of a scanned
    graph, whose `Labels` are `nodes`: the index of each distinct node in
    first-appearance order as int64 and the class of each; a file that
    names another node, or `nodes` that are not `Labels`, is left to the
    loop.  "rows" gives (labels, values) for an embedding TSV: the row
    labels and the rows as an m x C float64 array.  Only regular files
    are scanned: the loop must be able to read a declined file again,
    which a pipe does not allow.
    """
    lib = library()
    labelled = kind == "labels"
    if lib is None or not os.path.isfile(path) or (
            labelled and not isinstance(nodes, Labels)):
        return None
    with open(path, "rb") as fh:
        text = fh.read()
    seed = nodes.text if labelled else b""
    # The sizes modembed_scan's contract asks for; pages never written
    # are never touched.
    lines = 0 if kind == "rows" else text.count(b"\n") + 1
    ids = np.empty(2 * lines if kind == "edges" else lines, np.int64)
    values = np.empty(text.count(b"\t") if kind == "rows" else
                      lines if kind == "edges" else 0)
    names = np.empty(len(seed if labelled else text) + 1, np.uint8)
    classes = np.empty(len(text) + 1 if labelled else 0, np.uint8)
    out = _Scan(*(a.ctypes.data for a in (ids, values, names, classes)))
    if not lib.modembed_scan(_SCAN_KINDS.index(kind), text, len(text), seed,
                             len(seed), ctypes.byref(out)):
        return None
    if kind == "rows":
        return (_lines(names, out.names_size),
                values.reshape(out.rows, out.columns))
    if labelled:
        return ids[:out.rows], _lines(classes, out.classes_size)
    return ids[:2 * out.rows], values[:out.rows], Labels(names, out.names_size)


def _lines(buffer, size):
    """The '\\n'-terminated ASCII lines in the first `size` bytes."""
    return str(memoryview(buffer)[:size], "ascii").split("\n")[:-1]


class Labels(list):
    """The labels an edge-list scan read, as str, with `text`, their ASCII
    bytes each followed by '\\n'.  The label scan and the row writer read
    the bytes, so a list of these is not to be changed in place."""

    def __init__(self, buffer, size):
        self.text = bytes(memoryview(buffer)[:size])
        super().__init__(str(self.text, "ascii").split("\n")[:-1])

    @functools.cached_property
    def joined(self):
        """(the labels' bytes back to back, int offsets): label i is
        bytes[offsets[i]:offsets[i + 1]]."""
        ends = np.flatnonzero(np.frombuffer(self.text, np.uint8) == 10)
        offsets = np.zeros(ends.size + 1, np.intp)
        offsets[1:] = ends - np.arange(ends.size)
        return self.text.replace(b"\n", b""), offsets


class _Graph(ctypes.Structure):
    """The C struct modembed_graph."""
    _fields_ = [*((name, ctypes.c_void_p) for name in (
        "indptr", "indices", "data", "diag")), ("nnz", ctypes.c_ssize_t)]


@_recorded
def build(ids, weights, n):
    """(indptr, indices, data, diag_mass) of the sampled graph on n nodes
    whose edges join the int64 ids u0, w0, u1, w1, ... with `weights`,
    as `graph._from_ids` builds them; None when the library is missing,
    no pair has weight or the build declines.  The bytes are those of
    the numpy build `graph._csr_of_ids`."""
    lib = library()
    if lib is None:
        return None
    ids = np.ascontiguousarray(ids, np.int64).reshape(-1)
    weights = np.ascontiguousarray(weights, np.float64).reshape(-1)
    if ids.size != 2 * weights.size:
        return None
    # Pages past the stored entries are never written, so never touched.
    arrays = (np.empty(n + 1, np.int64), np.empty(2 * weights.size, np.int64),
              np.empty(2 * weights.size), np.empty(n))
    out = _Graph(*(a.ctypes.data for a in arrays))
    if lib.modembed_build(n, weights.size, ids, weights,
                          ctypes.byref(out)) != 1:
        return None
    indptr, indices, data, diag = arrays
    return indptr, indices[:out.nnz], data[:out.nnz], diag


@_recorded
def fit(Z, Y, W, b, iterations, step, l2):
    """`iterations` steps of `tasks.SoftmaxRegression.fit`'s gradient
    descent on the float64 m x d features Z (any strides) and the m x C
    one-hot labels Y, updating the weights W (d x C) and biases b in
    place; returns (W, b), or None when the library or a numpy loop is
    missing.  The bytes are those of the fit's numpy loop."""
    lib = library()
    loops = None if lib is None else _loops()
    if loops is None:
        return None
    (m, d), C = Z.shape, b.size
    if not (Z.dtype == np.float64 and Z.flags.aligned and
            Y.shape == (m, C) and W.shape == (d, C)):
        raise ValueError("fit needs float64 Z (m x d), Y (m x C), W (d x C)")
    # G, then the gradients of W and b.
    scratch = np.empty((m + d + 1) * C)
    lib.modembed_fit(loops, m, d, C, Z.ctypes.data, *Z.strides, Y,
                     iterations, step, l2, W, b, scratch)
    return W, b
