"""Run one modembed CLI command with its layers traced.

    python3 bench/traced.py TRACE.json JOB_ID -- <modembed arguments>

Public functions of the library are wrapped by module attribute before
the command runs.  Coarse calls (a parse, a sweep, a QR) become spans:
name, start, end, parent and job id, plus a few attributes read from the
arguments or the result.  Per-row calls (`row_covariance`, the row
updates) and operator applies keep only a call count, total time and a
log-scale histogram of call times, and are also counted on the span that
encloses them.  Everything stays in memory and is written to TRACE.json
when the command ends.  A wrap target the library no longer has is
listed under "missing" instead of failing the run, so that end-to-end
numbers never depend on internal names.
"""

import importlib
import itertools
import json
import math
import os
import sys
import time

# Histogram buckets are 2**(1/16) wide (about 4.4 %).
BUCKETS_PER_OCTAVE = 16


class _Frame:
    __slots__ = ("id", "name", "parent", "start", "child_ns", "counts")

    def __init__(self, id_, name, parent, start):
        self.id = id_
        self.name = name
        self.parent = parent
        self.start = start
        self.child_ns = 0
        self.counts = {}


class Tracer:
    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []
        self.counters = {}
        self.stack = []
        self._ids = itertools.count()

    def _bump(self, key, amount=1):
        if self.stack:
            counts = self.stack[-1].counts
            counts[key] = counts.get(key, 0) + amount

    def span(self, name, fn, probe=None):
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = self.stack[-1].id if self.stack else None
            frame = _Frame(next(self._ids), name, parent, clock())
            self.stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                self.stack.pop()
                if self.stack:
                    self.stack[-1].child_ns += end - frame.start
                attrs = probe(args, kwargs, result) if probe else {}
                self.spans.append({
                    "id": frame.id, "name": name, "job": self.job_id,
                    "start_ns": frame.start, "end_ns": end,
                    "parent": frame.parent, "child_ns": frame.child_ns,
                    "counts": frame.counts, "attrs": attrs,
                })

        return wrapper

    def counter(self, name, fn, pre=None, post=None):
        stats = self.counters.setdefault(
            name, {"calls": 0, "ns": 0, "hist": {}, "extra": {}})
        hist = stats["hist"]
        extra = stats["extra"]
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            before = pre(args) if pre else None
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            stats["calls"] += 1
            stats["ns"] += elapsed
            bucket = int(BUCKETS_PER_OCTAVE * math.log2(max(elapsed, 1)))
            hist[bucket] = hist.get(bucket, 0) + 1
            self._bump(name)
            if self.stack:
                self.stack[-1].child_ns += elapsed
            if post:
                for key, amount in post(before, args, result).items():
                    extra[key] = extra.get(key, 0) + amount
                    self._bump(f"{name}.{key}", amount)
            return result

        return wrapper

    def dump(self, path, missing, exit_code):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "job": self.job_id, "exit": exit_code, "missing": missing,
                "spans": self.spans, "counters": self.counters,
            }, fh)


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    try:
        return {"path": str(path), "bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {}


def _path_attr(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    return {"path": str(path)}


def _sweep_ops(args, kwargs, result):
    try:
        return {"ops": int(result[1])}
    except (TypeError, IndexError, ValueError):
        return {}


def _topk(args, kwargs, result):
    k = kwargs.get("k", args[1] if len(args) > 1 else None)
    return {"k": k}


def _qr_columns(args, kwargs, result):
    try:
        H = args[1] if len(args) > 1 else kwargs["H"]
        return {"cols_in": int(H.shape[1]),
                "cols_out": int(result.H_hat.shape[1])}
    except (AttributeError, IndexError, KeyError, TypeError):
        return {}


def _multilayer(args, kwargs, result):
    try:
        Q = args[0] if args else kwargs["Q"]
        return {"n": int(Q.n), "levels": len(result)}
    except (AttributeError, IndexError, KeyError, TypeError):
        return {}


def _row_argmax(args):
    H, u = args[0], args[1]
    return int(H[u].argmax())


def _moved(before, args, result):
    return {"moved": int(int(result.argmax()) != before)}


def _degenerate(before, args, result):
    return {"degenerate": int(result is False)}


# Span targets: (module, attribute path, probe(args, kwargs, result) -> attrs).
SPANS = [
    ("cli", "main", None),
    ("cli", "_write_manifest", None),
    ("graph", "load_edge_list", _path_attr),
    ("graph", "from_edge_list", None),
    ("clustering", "run", None),
    ("clustering", "sweep", _sweep_ops),
    ("sphere", "sphere_embed", None),
    ("sphere", "run_sphere", None),
    ("sphere", "sphere_sweep", None),
    ("embedding", "cafe_embed", None),
    ("embedding", "qr_embed", _qr_columns),
    ("embedding", "coarsen", None),
    ("embedding", "multilayer_embed", _multilayer),
    ("embedding", "save_embedding_tsv", _file_bytes),
    ("embedding", "load_embedding_tsv", None),
    ("spectral", "eigendecompose", _topk),
    ("spectral", "alignment_bounds", None),
    ("pointcloud", "reduce_cloud", None),
    ("pointcloud", "pca_basis", None),
    ("tasks", "classify", None),
    ("tasks", "SoftmaxRegression.fit", None),
    ("tasks", "load_labels", None),
    ("tasks", "save_metrics_tsv", _file_bytes),
]

# Counter targets: (module, attribute path, pre(args), post(pre value, args,
# result) -> {key: increment}).
COUNTERS = [
    ("graph", "ModularityMatrix.apply", None, None),
    ("graph", "ModularityMatrix.row_covariance", None, None),
    ("clustering", "softmax_update", _row_argmax, _moved),
    ("sphere", "sphere_update", None, _degenerate),
]


def _resolve(module_name, attr_path):
    """(owner, attribute, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(f"modembed.{module_name}")
    except ImportError:
        return None
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], None)
    if not callable(original):
        return None
    return owner, parts[-1], original


def _patch(owner, attr, original, wrapper):
    """Replace the target on its owner and, for module-level functions,
    on every modembed module that imported the same object by name."""
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if name != "modembed" and not name.startswith("modembed."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install(tracer):
    """Wrap every target that exists; return the names of those missing."""
    missing = []
    for (module_name, attr_path, *hooks), make in (
            [(t, tracer.span) for t in SPANS]
            + [(t, tracer.counter) for t in COUNTERS]):
        name = f"{module_name}.{attr_path}"
        found = _resolve(module_name, attr_path)
        if found is None:
            missing.append(name)
            continue
        owner, attr, original = found
        _patch(owner, attr, original, make(name, original, *hooks))
    return missing


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced.py TRACE.json JOB_ID -- <modembed args>",
              file=sys.stderr)
        return 1
    trace_path, job_id, cli_args = argv[0], argv[1], argv[3:]
    import modembed.cli

    tracer = Tracer(job_id)
    missing = install(tracer)
    code = 2
    try:
        code = modembed.cli.main(cli_args)
    finally:
        tracer.dump(trace_path, missing, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
