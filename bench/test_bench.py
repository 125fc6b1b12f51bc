"""Self-tests of the benchmark: inputs, output checks, tracing, metric names.

    python3 -m pytest bench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import inputs
import run
import traced

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The tracer wraps the library in place, so the library must import.
sys.path.insert(0, os.path.join(ROOT, "src"))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


GENERATORS = {
    "planted": lambda rng: inputs.planted_partition(600, 6, 4, 0.3, rng),
    "sbm": lambda rng: inputs.sbm([40, 40], 0.2, 0.01, rng),
    "attachment": lambda rng: (inputs.preferential_attachment(2000, 3, rng),),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_is_deterministic_and_connects_every_node(name):
    make = GENERATORS[name]
    first = make(np.random.default_rng([7, 1]))
    again = make(np.random.default_rng([7, 1]))
    other = make(np.random.default_rng([8, 1]))
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
    assert not np.array_equal(first[0], other[0])
    edges = first[0]
    n = int(edges.max()) + 1
    assert np.all(edges[:, 0] != edges[:, 1])
    pairs = np.sort(edges, axis=1)
    assert len(np.unique(pairs, axis=0)) == len(pairs)
    assert np.all(np.bincount(edges.ravel(), minlength=n) > 0)


def test_planted_partition_attaches_isolated_nodes_within_their_block():
    # Mean degree 1 leaves many nodes without a drawn edge.
    edges, block = inputs.planted_partition(400, 4, 1, 0.0,
                                            np.random.default_rng(3))
    assert np.all(np.bincount(edges.ravel(), minlength=400) > 0)
    assert np.all(block[edges[:, 0]] == block[edges[:, 1]])


def test_torus_is_deterministic():
    a = inputs.torus(50, np.random.default_rng(1))
    b = inputs.torus(50, np.random.default_rng(1))
    assert a.shape == (50, 3) and np.array_equal(a, b)


def _write_rows(path, M):
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(M):
            fh.write("\t".join([str(i)] + [f"{v:.17g}" for v in row]) + "\n")


def test_orthonormal_check_rejects_a_corrupted_embedding(tmp_path):
    M, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((30, 4)))
    path = tmp_path / "emb.tsv"
    _write_rows(path, M)
    assert checks.orthonormal(str(path), 30) == []
    M[3, 1] += 1e-6
    _write_rows(path, M)
    assert checks.orthonormal(str(path), 30)
    assert checks.orthonormal(str(path), 31)


def test_eigenvalue_check_rejects_a_wrong_value(tmp_path):
    edges, _ = inputs.planted_partition(300, 3, 8, 0.2,
                                        np.random.default_rng(2))
    reference = checks.top_eigenvalues(edges, 300, 3)
    Q = checks.modularity_operator(edges, 300)
    dense = Q.matmat(np.eye(300))
    assert np.allclose(np.sort(np.linalg.eigvalsh(dense))[::-1][:3],
                       reference, rtol=1e-10, atol=0)
    path = tmp_path / "eigs.tsv"
    def write(values):
        path.write_text("".join(f"{i}\t{v:.17g}\n"
                                for i, v in enumerate(values)))

    write(reference)
    assert checks.eigenvalues(str(path), reference) == []
    wrong = reference.copy()
    wrong[2] *= 1.0 + 1e-6
    write(wrong)
    assert checks.eigenvalues(str(path), reference)


def test_checks_report_a_missing_file(tmp_path):
    missing = str(tmp_path / "absent.tsv")
    edges = np.array([[0, 1], [1, 2]])
    assert checks.orthonormal(missing, 3)
    assert checks.eigenvalues(missing, np.ones(2))
    problems, best = checks.hierarchy(missing, edges, 3, [])
    assert problems and best is None


def test_hierarchy_check(tmp_path):
    # Two triangles joined by one edge; level 1 merges singletons into
    # the triangles, which raises modularity.
    edges = np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]])
    levels = np.array([[0, 0], [1, 0], [2, 0], [3, 1], [4, 1], [5, 1]])
    reported = [checks.modularity(edges, 6, levels[:, j]) for j in range(2)]
    path = tmp_path / "membership.tsv"
    _write_rows(path, levels)
    problems, best = checks.hierarchy(str(path), edges, 6, reported)
    assert problems == [] and best == pytest.approx(5 / 14)
    assert checks.hierarchy(str(path), edges, 6, [reported[0], 0.5])[0]
    broken = levels.copy()
    broken[1] = [0, 1]  # fine cluster 0 would span two coarse clusters
    _write_rows(path, broken)
    problems, _ = checks.hierarchy(str(path), edges, 6, reported)
    assert any("not an exact merge" in p for p in problems)


def test_missing_wrap_target_is_listed_not_fatal(monkeypatch):
    monkeypatch.setattr(traced, "SPANS", [("graph", "no_such_function", None),
                                          ("no_such_module", "f", None)])
    monkeypatch.setattr(traced, "COUNTERS", [])
    missing = traced.install(traced.Tracer("t"))
    assert missing == ["graph.no_such_function", "no_such_module.f"]


def test_metric_names_match_benchmark_json():
    spec = _spec()
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    command = run.CommandRun("x", 1.0, 1.0, 10.0, 0, False)
    jobs = [run.Job(False, 1.0, [command], {}, {}, {}, []),
            run.Job(True, 1.0, [command], {}, {}, {}, [])]
    end = run.end_to_end_metrics([1.0], jobs)
    layer = run.layer_metrics([1.0], jobs, {})
    assert sorted(end) == sorted(m["name"] for m in spec["end_to_end"])
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    assert all(v > 0 for v in end.values())


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-400",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
