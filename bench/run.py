"""Benchmark of the modembed CLI: seeded inputs, checked outputs, timed jobs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory and
the library is taken from its `src/`.  The benchmark generates its inputs
from --seed with its own numpy code (bench/inputs.py), writes them under
`.bench_work/`, and then runs *jobs*.  A job is the workload's sequence of
CLI commands, each a child process (`python3 -m modembed ...`), the way a
user runs them.  The load is a closed loop with one client: a command starts
only after the previous one has exited and nothing runs concurrently.  Jobs
repeat for about --seconds (at least two untraced jobs, so the reported
medians never rest on one job).  Every output is checked independently
(bench/checks.py); a command fails on a nonzero exit, a timeout or a failed
check.

With --trace 0 the metrics are end-to-end, measured on untraced jobs.  With
--trace 1 each round runs one untraced and one traced job; the traced one
runs every command through bench/traced.py, which wraps the library's
public functions, and the metrics are per layer.  Metric names and units
come from BENCHMARK.json at the repository root.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record (machine,
software, inputs, every job, per-command times, quality figures) goes to
`.bench_work/results/`.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field

sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from traced import BUCKETS_PER_OCTAVE  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")

# Set-up runs this many times per run and reports the median, so that work
# moved into set-up shows without one slow repetition deciding the figure.
SETUP_REPEATS = 3
# One command may take at most this long, and no round starts that could
# end after MEASURE_LIMIT_S, so that a run ends within 180 s.
COMMAND_TIMEOUT_S = 120.0
MEASURE_LIMIT_S = 120.0


@dataclass
class Command:
    """One CLI invocation.  Paths are relative to the job directory and
    every file the command writes starts with `name.`."""

    name: str
    args: list


@dataclass
class Inputs:
    sizes: dict  # input path as the CLI sees it -> {"n": ..., "edges": ...}
    input_bytes: int
    data: dict = field(default_factory=dict)

    def edge_counts(self):
        return {p: s["edges"] for p, s in self.sizes.items() if "edges" in s}


@dataclass
class Workload:
    name: str
    setup: object     # (rng, directory) -> Inputs
    commands: list
    check: object     # (Inputs, job dir) -> (problems by command, quality)


def _graph_input(directory, name, edges, n):
    inputs.write_edges(os.path.join(directory, name), edges)
    return f"../inputs/{name}", {"n": n, "edges": len(edges)}


def _size(directory):
    return sum(os.path.getsize(os.path.join(directory, f))
               for f in os.listdir(directory))


# --- embed-20k ------------------------------------------------------------

def _embed_setup(rng, directory):
    edges, block = inputs.planted_partition(20000, 16, 8, 0.3, rng)
    graph, size = _graph_input(directory, "pp20k.tsv", edges, 20000)
    inputs.write_labels(os.path.join(directory, "pp20k.labels.tsv"), block)
    return Inputs({graph: size}, _size(directory),
                  {"edges": edges, "blocks": 16})


def _embed_check(inp, job):
    n = 20000
    problems = {
        "cafe": checks.orthonormal(os.path.join(job, "cafe.tsv"), n,
                                   max_cols=16),
        "sphere": checks.orthonormal(os.path.join(job, "sphere.tsv"), n,
                                     max_cols=8),
        "classify": [],
    }
    quality = {}
    try:
        part = checks.argmax_partition(os.path.join(job, "cafe.assign.tsv"), n)
        quality["modularity"] = checks.modularity(inp.data["edges"], n, part)
        if not quality["modularity"] > 0.0:
            problems["cafe"].append("argmax partition has modularity <= 0")
    except (OSError, ValueError, IndexError) as exc:
        problems["cafe"].append(f"cafe.assign.tsv: unreadable ({exc})")
    try:
        acc = checks.read_named(os.path.join(job, "classify.tsv"))["accuracy"]
        quality["classify_acc"] = acc
        # Twice chance on 16 balanced classes.
        if not 2.0 / inp.data["blocks"] < acc <= 1.0:
            problems["classify"].append(
                f"accuracy {acc} not above twice chance")
    except (OSError, ValueError, KeyError) as exc:
        problems["classify"].append(f"classify.tsv: no accuracy ({exc})")
    return problems, quality


EMBED_20K = Workload(
    "embed-20k",
    _embed_setup,
    [
        Command("cafe", ["embed", "cafe", "--graph", "../inputs/pp20k.tsv",
                         "--k", "16", "--theta", "1e5", "--max-sweeps", "8",
                         "--tol", "0",
                         "--assignment-out", "cafe.assign.tsv",
                         "--out", "cafe.tsv"]),
        Command("sphere", ["embed", "sphere", "--graph", "../inputs/pp20k.tsv",
                           "--k", "8", "--max-sweeps", "8", "--tol", "0",
                           "--out", "sphere.tsv"]),
        Command("classify", ["eval", "classify",
                             "--graph", "../inputs/pp20k.tsv",
                             "--embeddings", "cafe.tsv",
                             "--labels", "../inputs/pp20k.labels.tsv",
                             "--reps", "1", "--out", "classify.tsv"]),
    ],
    _embed_check,
)


# --- multilevel-1k5 -------------------------------------------------------

def _multilevel_setup(rng, directory):
    edges, _ = inputs.planted_partition(1500, 12, 10, 0.3, rng)
    graph, size = _graph_input(directory, "pp1k5.tsv", edges, 1500)
    return Inputs({graph: size}, _size(directory), {"edges": edges})


def _multilevel_check(inp, job):
    n = 1500
    problems = checks.orthonormal(os.path.join(job, "multilayer.tsv"), n)
    quality = {}
    try:
        with open(os.path.join(job, "multilayer.tsv.manifest.json"),
                  encoding="utf-8") as fh:
            reported = [lv["modularity"] for lv in json.load(fh)["levels"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"manifest unreadable ({exc})")
        reported = []
    found, best = checks.hierarchy(
        os.path.join(job, "multilayer.membership.tsv"), inp.data["edges"],
        n, reported)
    problems += found
    if best is not None:
        quality["modularity"] = best
        if not best > 0.0:
            problems.append("best level has modularity <= 0")
    return {"multilayer": problems}, quality


MULTILEVEL_1K5 = Workload(
    "multilevel-1k5",
    _multilevel_setup,
    # --tol stays at its default: it is also the margin by which a level
    # must beat the previous one, and with --tol 0 a level whose modularity
    # only rounding made larger was accepted (seed 305).
    [Command("multilayer", ["embed", "multilayer",
                            "--graph", "../inputs/pp1k5.tsv",
                            "--max-sweeps", "30",
                            "--out", "multilayer.tsv"])],
    _multilevel_check,
)


# --- oracle-400 -----------------------------------------------------------

def _oracle_setup(rng, directory):
    sbm, _ = inputs.sbm([200, 200], 0.3, 0.03, rng)
    pp, _ = inputs.planted_partition(10000, 8, 8, 0.3, rng)
    sizes = dict([_graph_input(directory, "sbm400.tsv", sbm, 400),
                  _graph_input(directory, "pp10k.tsv", pp, 10000)])
    # The CLI reads two or three coordinates per point, so the torus is
    # written in three dimensions; the Gram operator X X^T that `reduce`
    # works on is the same for any isometric lift of the cloud.
    inputs.write_points(os.path.join(directory, "torus2k.xyz"),
                        inputs.torus(2000, rng))
    sizes["../inputs/torus2k.xyz"] = {"n": 2000}
    reference = checks.top_eigenvalues(pp, 10000, 4)
    return Inputs(sizes, _size(directory), {"eigenvalues": reference})


def _oracle_check(inp, job):
    problems = {"verify": [], "eigs": [], "reduce": []}
    quality = {}
    try:
        report = checks.read_named(os.path.join(job, "verify.tsv"))
        quality["cos_qx"] = report["cos_qx"]
        if report["applicable"] != 1.0 or report["holds"] != 1.0:
            problems["verify"].append(
                f"applicable={report['applicable']} holds={report['holds']}")
    except (OSError, ValueError, KeyError) as exc:
        problems["verify"].append(f"verify.tsv: unreadable ({exc})")
    problems["eigs"] = checks.eigenvalues(os.path.join(job, "eigs.tsv"),
                                          inp.data["eigenvalues"])
    problems["reduce"] = checks.orthonormal(os.path.join(job, "reduce.tsv"),
                                            2000, max_cols=6)
    try:
        selected = np.loadtxt(os.path.join(job, "reduce.residuals.tsv"),
                              ndmin=2)[:, 2]
        if int(selected.sum()) != 3:
            problems["reduce"].append(
                f"{int(selected.sum())} columns selected, 3 expected")
    except (OSError, ValueError, IndexError) as exc:
        problems["reduce"].append(f"reduce.residuals.tsv: unreadable ({exc})")
    return problems, quality


ORACLE_400 = Workload(
    "oracle-400",
    _oracle_setup,
    [
        Command("verify", ["verify", "--graph", "../inputs/sbm400.tsv",
                           "--k", "2", "--theta", "2e4",
                           "--out", "verify.tsv"]),
        Command("eigs", ["eigs", "--graph", "../inputs/pp10k.tsv",
                         "--topk", "4", "--out", "eigs.tsv"]),
        Command("reduce", ["reduce", "--points", "../inputs/torus2k.xyz",
                           "--k", "6", "--max-sweeps", "20", "--tol", "0",
                           "--out", "reduce.tsv"]),
    ],
    _oracle_check,
)


# --- ingest-200k ----------------------------------------------------------

def _ingest_setup(rng, directory):
    n = 200000
    edges = inputs.preferential_attachment(n, 3, rng)
    graph, size = _graph_input(directory, "pa200k.tsv", edges, n)
    inputs.write_labels(os.path.join(directory, "pa200k.labels.tsv"),
                        rng.integers(0, 16, n))
    return Inputs({graph: size}, _size(directory))


def _ingest_check(inp, job):
    return {"labels": checks.orthonormal(os.path.join(job, "labels.tsv"),
                                         200000, max_cols=16)}, {}


INGEST_200K = Workload(
    "ingest-200k",
    _ingest_setup,
    [Command("labels", ["embed", "cafe", "--graph", "../inputs/pa200k.tsv",
                        "--full-label",
                        "--labels", "../inputs/pa200k.labels.tsv",
                        "--out", "labels.tsv"])],
    _ingest_check,
)

WORKLOADS = {w.name: w for w in (EMBED_20K, MULTILEVEL_1K5, ORACLE_400,
                                 INGEST_200K)}


# --- running commands -----------------------------------------------------

@dataclass
class CommandRun:
    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    timed_out: bool


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, cwd, log_path, env):
    """Run one child to completion; wall time from spawn to exit, CPU time
    and peak RSS from wait4."""
    killed = threading.Event()
    start = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode, killed.is_set())


@dataclass
class Job:
    traced: bool
    job_s: float
    commands: list
    problems: dict
    quality: dict
    digests: dict
    traces: list


def run_job(workload, inp, job_id, traced, env):
    job_dir = os.path.join(WORK, workload.name, "job")
    shutil.rmtree(job_dir, ignore_errors=True)
    os.makedirs(job_dir)
    runs, traces = [], []
    start = time.perf_counter()
    for cmd in workload.commands:
        if traced:
            trace_file = f"{cmd.name}.trace.json"
            argv = [sys.executable, os.path.join(BENCH, "traced.py"),
                    trace_file, job_id, "--", *cmd.args]
        else:
            argv = [sys.executable, "-m", "modembed", *cmd.args]
        log = os.path.join(job_dir, f"{cmd.name}.log")
        runs.append(CommandRun(cmd.name, *spawn(argv, job_dir, log, env)))
        if runs[-1].timed_out:
            break
    job_s = time.perf_counter() - start
    problems, quality = workload.check(inp, job_dir)
    for run in runs:
        if run.exit_code != 0:
            problems.setdefault(run.name, []).append(
                "timed out" if run.timed_out else f"exit code {run.exit_code}")
    if traced:
        for cmd in workload.commands:
            try:
                with open(os.path.join(job_dir, f"{cmd.name}.trace.json"),
                          encoding="utf-8") as fh:
                    traces.append(json.load(fh))
            except (OSError, ValueError) as exc:
                problems.setdefault(cmd.name, []).append(f"no trace ({exc})")
    outputs = sorted(f for f in os.listdir(job_dir) if f.endswith(".tsv"))
    return Job(traced, job_s, runs, problems, quality,
               checks.digests(job_dir, outputs), traces)


def compare_digests(jobs):
    """Outputs of every job must be byte-identical to the first job's; a
    difference is a problem of the command that wrote the file."""
    first = jobs[0].digests
    for i, job in enumerate(jobs[1:], start=1):
        for name in sorted(set(first) | set(job.digests)):
            if first.get(name) != job.digests.get(name):
                job.problems.setdefault(name.split(".")[0], []).append(
                    f"{name} differs from job 0")


# --- set-up ---------------------------------------------------------------

def set_up(workload, seed, env):
    """Generate and write the inputs, then import the CLI once in a child.
    Returns (Inputs, seconds, import seconds)."""
    directory = os.path.join(WORK, workload.name, "inputs")
    start = time.perf_counter()
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    inp = workload.setup(rng, directory)
    import_start = time.perf_counter()
    result = subprocess.run([sys.executable, "-c", "import modembed.cli"],
                            env=env, cwd=directory, capture_output=True,
                            timeout=COMMAND_TIMEOUT_S)
    end = time.perf_counter()
    if result.returncode != 0:
        raise RuntimeError("importing modembed.cli failed:\n"
                           + result.stderr.decode(errors="replace"))
    return inp, end - start, end - import_start


# --- metrics --------------------------------------------------------------

def _median(values):
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(setup_s, jobs):
    """The BENCHMARK.json end-to-end metrics: medians over untraced jobs."""
    plain = [j for j in jobs if not j.traced]
    return {
        "setup_s": _median(setup_s),
        "job_s": _median([j.job_s for j in plain]),
        "cpu_s": _median([sum(c.cpu_s for c in j.commands) for j in plain]),
        "peak_rss_mb": _median([max(c.rss_mb for c in j.commands)
                                for j in plain]),
    }


def command_metrics(jobs):
    """Median wall time of each command (`<name>_s`) and the median of
    each quality figure over untraced jobs; reported, not gated."""
    plain = [j for j in jobs if not j.traced]
    walls, quality = {}, {}
    for job in plain:
        for c in job.commands:
            walls.setdefault(f"{c.name}_s", []).append(c.wall_s)
        for key, value in job.quality.items():
            quality.setdefault(key, []).append(value)
    return ({k: _median(v) for k, v in walls.items()},
            {k: _median(v) for k, v in quality.items()})


def _hist_median_us(hist):
    """Median of a log-bucketed histogram of nanosecond call times, in
    microseconds, at the bucket's geometric centre."""
    total = sum(hist.values())
    if not total:
        return 0.0
    seen = 0
    for bucket in sorted(hist, key=int):
        seen += hist[bucket]
        if 2 * seen >= total:
            return 2.0 ** ((int(bucket) + 0.5) / BUCKETS_PER_OCTAVE) / 1000.0
    return 0.0


def job_layer_metrics(traces, edge_counts):
    """Per-layer metrics of one traced job from its commands' traces."""
    spans = []
    counters = {}
    for doc in traces:
        by_id = {s["id"]: s for s in doc["spans"]}
        for s in doc["spans"]:
            above, parent = [], s["parent"]
            while parent is not None:
                above.append(by_id[parent]["name"])
                parent = by_id[parent]["parent"]
            spans.append((s, above))
        for name, c in doc["counters"].items():
            into = counters.setdefault(name, {"calls": 0, "ns": 0, "hist": {}})
            into["calls"] += c["calls"]
            into["ns"] += c["ns"]
            for bucket, count in c["hist"].items():
                into["hist"][bucket] = into["hist"].get(bucket, 0) + count

    def pick(name, under=None, outside=None):
        return [s for s, above in spans if s["name"] == name
                and (under is None or under in above)
                and (outside is None or outside not in above)]

    def dur(s):
        return (s["end_ns"] - s["start_ns"]) / 1e9

    def total(items):
        return sum(dur(s) for s in items)

    def count(items, key):
        return sum(s["counts"].get(key, 0) for s in items)

    def attr(items, key):
        return sum(s["attrs"].get(key, 0) or 0 for s in items)

    def ratio(a, b):
        return a / b if b else 0.0

    reduce_ = "pointcloud.reduce_cloud"
    writes = (pick("embedding.save_embedding_tsv")
              + pick("tasks.save_metrics_tsv"))
    loads = pick("graph.load_edge_list")
    load_s = sum(dur(s) - s["child_ns"] / 1e9 for s in loads)
    build_s = total(pick("graph.from_edge_list"))
    edges = sum(edge_counts.get(s["attrs"].get("path"), 0) for s in loads)
    apply_ = counters.get("graph.ModularityMatrix.apply", {})
    row_cov = counters.get("graph.ModularityMatrix.row_covariance", {})
    sweeps = pick("clustering.sweep", outside=reduce_)
    rows = count(sweeps, "clustering.softmax_update")
    sphere = pick("sphere.sphere_sweep")
    sphere_rows = count(sphere, "sphere.sphere_update")
    qr = pick("embedding.qr_embed")
    multi = pick("embedding.multilayer_embed")
    multi_ids = {s["id"] for s in multi}
    level0 = sorted((s for s in pick("clustering.run")
                     if s["parent"] in multi_ids), key=lambda s: s["start_ns"])
    eig = pick("spectral.eigendecompose")
    dense = [s for s in eig if s["attrs"].get("k") is None]
    topk = [s for s in eig if s["attrs"].get("k") is not None]
    return {
        "cli.write_s": total(writes),
        "cli.write_mb_per_s": ratio(attr(writes, "bytes") / 1e6,
                                    total(writes)),
        "cli.manifest_s": total(pick("cli._write_manifest")),
        "graph.load_s": load_s,
        "graph.build_s": build_s,
        "graph.edges_per_s": ratio(edges, load_s + build_s),
        "graph.apply_calls": apply_.get("calls", 0),
        "graph.apply_s": apply_.get("ns", 0) / 1e9,
        "graph.row_cov_calls": row_cov.get("calls", 0),
        "graph.row_cov_us_p50": _hist_median_us(row_cov.get("hist", {})),
        "clustering.sweeps": len(sweeps),
        "clustering.sweep_s_p50": _median([dur(s) for s in sweeps]),
        "clustering.rows_per_s": ratio(rows, total(sweeps)),
        "clustering.ops_per_s": ratio(attr(sweeps, "ops"), total(sweeps)),
        "clustering.moved_frac": ratio(
            count(sweeps, "clustering.softmax_update.moved"), rows),
        "sphere.sweeps": len(sphere),
        "sphere.sweep_s_p50": _median([dur(s) for s in sphere]),
        "sphere.rows_per_s": ratio(sphere_rows, total(sphere)),
        "sphere.degenerate_frac": ratio(
            count(sphere, "sphere.sphere_update.degenerate"), sphere_rows),
        "embedding.qr_s": total(qr),
        "embedding.kept_col_frac": ratio(attr(qr, "cols_out"),
                                         attr(qr, "cols_in")),
        "embedding.level0_s": dur(level0[0]) if level0 else 0.0,
        "embedding.coarsen_s": total(pick("embedding.coarsen")),
        "embedding.levels_accepted": attr(multi, "levels"),
        "embedding.level0_H_mb": sum(s["attrs"].get("n", 0) ** 2 * 8 / 1e6
                                     for s in multi),
        "spectral.dense_eig_s": total(dense),
        "spectral.align_s": total(pick("spectral.alignment_bounds")),
        "spectral.topk_s": total(topk),
        "spectral.topk_apply_calls": count(topk,
                                           "graph.ModularityMatrix.apply"),
        "pointcloud.reduce_s": total(pick(reduce_)),
        "pointcloud.pca_s": total(pick("pointcloud.pca_basis")),
        "pointcloud.sweep_s_p50": _median(
            [dur(s) for s in pick("clustering.sweep", under=reduce_)]),
        "tasks.classify_s": total(pick("tasks.classify")),
        "tasks.fit_s_p50": _median(
            [dur(s) for s in pick("tasks.SoftmaxRegression.fit")]),
    }


def layer_metrics(import_s, jobs, edge_counts):
    """Per-layer metrics: medians over traced jobs, plus the import time of
    the CLI and the tracing overhead against the untraced jobs."""
    per_job = [job_layer_metrics(j.traces, edge_counts)
               for j in jobs if j.traced]
    names = per_job[0] if per_job else job_layer_metrics([], edge_counts)
    metrics = {"cli.import_s": _median(import_s)}
    metrics.update({k: _median([m[k] for m in per_job]) for k in names})
    plain = _median([j.job_s for j in jobs if not j.traced])
    traced = _median([j.job_s for j in jobs if j.traced])
    metrics["trace.overhead_frac"] = traced / plain - 1.0 if plain else 0.0
    return metrics


# --- records --------------------------------------------------------------

def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def machine_info():
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            info["cpu_model"] = line.split(":", 1)[1].strip()
            break
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        d = os.path.join(base, index)
        if index.startswith("index"):
            caches.append({k: _read(os.path.join(d, k)).strip()
                           for k in ("level", "type", "size")})
    info["caches"] = caches
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = {"name": blas.get("name"), "version": blas.get("version"),
                    "threads": _blas_threads()}
    return info


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line and line.split()[-1].startswith("/")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the repository, read from .git without running git; None
    outside a git checkout."""
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    value = _read(os.path.join(ROOT, ".git", ref)).strip()
    if value:
        return value
    for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def software_info():
    import platform

    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_commit": git_commit()}


# --- main -----------------------------------------------------------------

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "modembed", "cli.py")):
        print(f"error: no modembed sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    workload = WORKLOADS[args.workload]
    env = child_env()

    setup_s, import_s = [], []
    for _ in range(SETUP_REPEATS):
        inp, seconds, imported = set_up(workload, args.seed, env)
        setup_s.append(seconds)
        import_s.append(imported)

    # A round is one job, or an untraced and a traced job.  Another round
    # starts while it would end no more than half a round past --seconds,
    # so a run measures about --seconds whatever the job length.  Untraced
    # runs make at least two rounds: when a run stopped after one slow job,
    # the job count followed the host's speed and the median with it.
    jobs = []
    min_rounds = 1 if args.trace else 2
    start = time.perf_counter()
    for rounds in itertools.count(1):
        round_start = time.perf_counter()
        for traced in ((False, True) if args.trace else (False,)):
            job_id = f"{workload.name}-{args.seed}-{len(jobs)}"
            jobs.append(run_job(workload, inp, job_id, traced, env))
        now = time.perf_counter()
        elapsed, last = now - start, now - round_start
        if (any(c.timed_out for c in jobs[-1].commands)
                or elapsed + last > MEASURE_LIMIT_S
                or (rounds >= min_rounds
                    and elapsed + 0.5 * last > args.seconds)):
            break

    compare_digests(jobs)
    attempted = sum(len(j.commands) for j in jobs)
    failed = sum(1 for j in jobs for c in j.commands if j.problems.get(c.name))
    problems = [f"job {i} {name}: {p}" for i, j in enumerate(jobs)
                for name, found in j.problems.items() for p in found]

    if args.trace:
        metrics = layer_metrics(import_s, jobs, inp.edge_counts())
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end_metrics(setup_s, jobs)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 2
    walls, quality = command_metrics(jobs)
    missing = sorted({m for j in jobs for t in j.traces for m in t["missing"]})

    record = {
        "workload": workload.name, "seed": args.seed,
        "why": next(w["why"] for w in spec["workloads"]
                    if w["name"] == workload.name),
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_info(), "software": software_info(),
        "inputs": {"files": inp.sizes, "input_bytes": inp.input_bytes},
        "metrics": metrics, "command_s": walls, "quality": quality,
        "error_rate": failed / attempted, "attempted": attempted,
        "failed": failed, "problems": problems,
        "missing_trace_targets": missing,
        "setup_s": setup_s, "import_s": import_s,
        "jobs": [{"traced": j.traced, "job_s": j.job_s,
                  "commands": [vars(c) for c in j.commands]} for j in jobs],
    }
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, f"BENCH_{workload.name}_seed{args.seed}"
                                f"_trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"workload {workload.name}, seed {args.seed}: {len(jobs)} job(s), "
          f"{attempted} command(s), {failed} failed "
          f"(error_rate {failed / attempted:.4g})")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    for name, value in walls.items():
        print(f"  {name:28s} {value:.6g} s")
    for name, value in quality.items():
        print(f"  {name:28s} {value:.6g} (quality, higher is better)")
    for p in problems:
        print(f"  FAILED {p}")
    if missing:
        print(f"  trace targets missing: {', '.join(missing)}")
    print(f"  record: {os.path.relpath(out, ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
