"""Acceptance suite: eleven go/no-go checks, one test each.

Every test prints a single `CRITERION n: PASS/FAIL` line (visible with
`pytest -s`, and on any failure) and pins its tolerances and fixtures
explicitly.  Stated runtime budgets are asserted with wall clocks.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from modembed import datasets, graph
from modembed.cli import main as cli_main
from modembed.clustering import ClusterConfig, run
from modembed.embedding import (
    cafe_embed,
    multilayer_embed,
)
from modembed.pointcloud import (
    center,
    concentric_circles,
    embed_lift,
    reduce_cloud,
    torus_cloud,
)
from modembed.spectral import alignment_bounds
from modembed.sphere import SphereConfig, run_sphere, sphere_embed
from modembed.tasks import classify, link_predict

from conftest import dense_masses, dense_modularity, graph_from, random_edges


def _report(num, ok, detail):
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_per_sweep_monotonicity():
    """Objective traces never decrease by more than 1e-10 per sweep."""
    started = time.monotonic()
    meta = np.random.default_rng(777)
    violations = 0
    checked = 0
    for _ in range(100):
        n = int(meta.integers(10, 61))
        edges = datasets.erdos_renyi_edges(n, 0.2, seed=int(meta.integers(0, 2**31)))
        g = graph.from_edge_list(edges)
        Q = g.modularity_matrix()
        for theta in (1.0, 10.0, 100.0):
            trace = run(Q, ClusterConfig(n_clusters=5, theta=theta,
                                         max_sweeps=8, seed=0)).climb.objective_trace
            checked += len(trace) - 1
            violations += sum(b < a - 1e-10 for a, b in zip(trace, trace[1:]))
        for beta in (0.1, 0.5, 1.0):
            trace = run_sphere(Q, SphereConfig(n_dims=4, beta=beta,
                                               max_sweeps=8, seed=0))[1].objective_trace
            checked += len(trace) - 1
            violations += sum(b < a - 1e-10 for a, b in zip(trace, trace[1:]))
    elapsed = time.monotonic() - started
    _report(1, violations == 0 and elapsed < 30.0,
            f"{violations} violations over {checked} sweep steps on 100 "
            f"graphs x (3 thetas + 3 betas) in {elapsed:.1f}s (< 30s)")


def _fixture_registry():
    """Every graph family the test suite touches, by construction route."""
    rng = np.random.default_rng(2024)
    out = [("karate", graph.from_edge_list(datasets.karate_club_edges()))]
    out.append(("clique4", graph.from_edge_list(datasets.clique_edges(range(4)))))
    out.append(("barbell", graph.from_edge_list(datasets.barbell_edges(5))))
    out.append(("barbell_path", graph.from_edge_list(
        datasets.barbell_edges(4, path_length=3))))
    for i in range(3):
        n = int(rng.integers(10, 80))
        out.append((f"er_{i}", graph_from(
            random_edges(rng, n, weighted=i != 0, self_loops=i == 2), n)))
    edges, _ = datasets.sbm_edges([15, 15], [[0.8, 0.05], [0.05, 0.8]], seed=1)
    out.append(("sbm", graph.from_edge_list(edges)))
    edges, _ = datasets.two_level_block_edges(10, 0.7, 0.3, 0.05, seed=1)
    out.append(("two_level", graph.from_edge_list(edges)))
    out.append(("ba", graph.from_edge_list(
        datasets.barabasi_albert_edges(150, 3, seed=5), nodes=range(150))))
    sim = rng.random((20, 20))
    out.append(("similarity", graph.from_similarity(sim)))
    out.append(("isolated", graph.from_edge_list([(0, 1), (1, 2)],
                                                 nodes=range(5))))
    out.append(("self_loops", graph.from_edge_list(
        [(0, 1, 2.0), (1, 2, 1.0), (2, 2, 0.5), (0, 0, 0.25)])))
    return out


def test_criterion_02_mass_and_row_sum_invariants():
    """Total mass within 1e-12 of 1; operator row sums below 1e-12."""
    worst_mass = 0.0
    worst_row = 0.0
    count = 0
    for name, g in _fixture_registry():
        count += 1
        worst_mass = max(worst_mass, abs(g.total_mass - 1.0))
        Q = g.modularity_matrix()
        worst_row = max(worst_row, float(np.abs(Q.apply(np.ones(g.n))).max()))
    _report(2, worst_mass <= 1e-12 and worst_row <= 1e-12,
            f"{count} fixtures: worst |mass-1|={worst_mass:.2e}, "
            f"worst |row sum|={worst_row:.2e} (<= 1e-12)")


def test_criterion_03_sparse_dense_equivalence():
    """apply() and both per-node z paths match dense within 1e-12."""
    started = time.monotonic()
    rng = np.random.default_rng(5150)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(20, 201))
        edges = random_edges(rng, n, p=0.1, weighted=trial % 2 == 0,
                             self_loops=trial % 3 == 0)
        g = graph_from(edges, n)
        P = dense_masses(edges, n)
        H = rng.random((n, 4))
        H /= H.sum(axis=1, keepdims=True)
        for zeroed in (False, True):
            Q = g.modularity_matrix(diag_zeroed=zeroed)
            Qd = dense_modularity(P, zero_diag=zeroed)
            worst = max(worst, float(np.abs(Q.apply(H) - Qd @ H).max()))
        # z_u two ways: sparse row + aggregate, and the full matvec row.
        Qz = g.modularity_matrix(diag_zeroed=True)
        Qdz = dense_modularity(P, zero_diag=True)
        agg = Qz.make_aggregate(H)
        for u in rng.integers(0, n, size=5):
            dense_z = Qdz[int(u)] @ H
            worst = max(worst, float(np.abs(
                Qz.row_covariance(H, agg, int(u)) - dense_z).max()))
            worst = max(worst, float(np.abs(Qz.apply(H)[int(u)] - dense_z).max()))
    elapsed = time.monotonic() - started
    _report(3, worst <= 1e-12 and elapsed < 10.0,
            f"50 graphs (n <= 200): worst elementwise gap {worst:.2e} "
            f"(<= 1e-12) in {elapsed:.1f}s (< 10s)")


def test_criterion_04_alignment_bounds_hold():
    """Zero bound violations over 100 gapped two-block clusterings."""
    meta = np.random.default_rng(12345)
    applicable = 0
    violations = 0
    for _ in range(100):
        sizes = [int(meta.integers(10, 41)), int(meta.integers(10, 41))]
        edges, _ = datasets.sbm_edges(sizes, [[0.8, 0.05], [0.05, 0.8]],
                                      seed=int(meta.integers(0, 2**31)))
        g = graph.from_edge_list(edges)
        Q = g.modularity_matrix()
        result = run(Q, ClusterConfig(n_clusters=2, theta=80.0,
                                      max_sweeps=60, seed=0))
        report = alignment_bounds(Q, result.assignment.H)
        if report.applicable:
            applicable += 1
            if not report.holds:
                violations += 1
    # >= 50 applicable guards against a vacuous pass; the criterion itself
    # is zero violations wherever the precondition held.
    _report(4, applicable >= 50 and violations == 0,
            f"{applicable}/100 runs applicable, {violations} violations "
            f"of the three bounds")


def test_criterion_05_karate_eigenvector_cosine(karate):
    """|cos(v1, Qx)| >= 0.95 for the converged two-cluster karate run."""
    started = time.monotonic()
    Q = karate.modularity_matrix()
    # The K=2 fixed point is approached geometrically; ~1100 sweeps to tol.
    result = run(Q, ClusterConfig(n_clusters=2, theta=50.0, seed=0,
                                  max_sweeps=1600))
    report = alignment_bounds(Q, result.assignment.H)
    elapsed = time.monotonic() - started
    cos_qx = abs(report.cos_qx)
    _report(5, result.climb.converged and cos_qx >= 0.95 and elapsed < 1.0,
            f"|cos(v1, Qx)| = {cos_qx:.4f} (>= 0.95) in {elapsed:.2f}s (< 1s)")


def test_criterion_06_point_cloud_residual_counts():
    """Exactly 2 near-zero residual columns for circles, 3 for the torus."""
    started = time.monotonic()
    circles = concentric_circles()  # n=200
    lifted = embed_lift(center(circles), 30, seed=0)
    r_circ = reduce_cloud(lifted, n_dims=6, theta=0.010, seed=0)
    n_circ = int((r_circ.residuals <= 1e-3).sum())

    torus = torus_cloud()  # n=240
    lifted = embed_lift(center(torus), 30, seed=0)
    r_tor = reduce_cloud(lifted, n_dims=6, theta=0.010, seed=0)
    n_tor = int((r_tor.residuals <= 1e-3).sum())
    elapsed = time.monotonic() - started
    _report(6, n_circ == 2 and n_tor == 3 and elapsed < 60.0,
            f"residuals <= 1e-3: circles {n_circ} (== 2), torus {n_tor} "
            f"(== 3) in {elapsed:.1f}s (< 60s)")


def test_criterion_07_orthonormal_embeddings(karate):
    """Every pipeline embedding satisfies ||Hhat^T Hhat - I||_max <= 1e-10."""
    Q = karate.modularity_matrix()
    embeddings = [
        cafe_embed(Q, ClusterConfig(n_clusters=2, theta=50.0, seed=0)).embedding,
        cafe_embed(Q, ClusterConfig(n_clusters=6, theta=30.0, seed=1)).embedding,
        sphere_embed(Q, SphereConfig(n_dims=4, beta=0.5, seed=0)).embedding,
    ]
    edges, _ = datasets.two_level_block_edges(10, 0.7, 0.3, 0.05, seed=1)
    g2 = graph.from_edge_list(edges)
    embeddings += [L.embedding for L in
                   multilayer_embed(g2.modularity_matrix(), seed=0)]
    circles = embed_lift(center(concentric_circles()), 30, seed=0)
    reduced = reduce_cloud(circles, n_dims=6, theta=0.010, seed=0)
    worst = float(np.abs(
        reduced.embedding.T @ reduced.embedding
        - np.eye(reduced.embedding.shape[1])).max())
    for emb in embeddings:
        gram = emb.H_hat.T @ emb.H_hat
        worst = max(worst, float(np.abs(gram - np.eye(emb.C)).max()))
    _report(7, worst <= 1e-10,
            f"{len(embeddings) + 1} embeddings: worst ||H^T H - I||_max = "
            f"{worst:.2e} (<= 1e-10)")


def test_criterion_08_multilayer_hierarchy():
    """Strictly increasing level modularity; finer levels refine coarser."""
    edges, _ = datasets.two_level_block_edges(25, 0.6, 0.22, 0.02, seed=1)
    g = graph.from_edge_list(edges)
    levels = multilayer_embed(g.modularity_matrix(), seed=0)
    mods = [L.modularity for L in levels]
    increasing = all(b > a for a, b in zip(mods, mods[1:]))
    refines = True
    for fine, coarse in zip(levels, levels[1:]):
        for c in np.unique(fine.membership):
            if len(set(coarse.membership[fine.membership == c])) != 1:
                refines = False
    _report(8, len(levels) >= 2 and increasing and refines,
            f"{len(levels)} levels, modularities "
            f"{[round(m, 4) for m in mods]} strictly increasing, "
            f"refinement exact")


def _cora_paths():
    root = Path(__file__).resolve().parents[1]
    for base in (root / "data", root / "data" / "cora", root):
        content, cites = base / "cora.content", base / "cora.cites"
        if content.exists() and cites.exists():
            return content, cites
    return None


def test_criterion_09_downstream_floors():
    """Classification / link floors with sphere embeddings, 50% train."""
    started = time.monotonic()
    cora = _cora_paths()
    if cora is not None:
        content, cites = cora
        rows = [line.split("\t") for line in
                content.read_text().strip().split("\n")]
        label_of = {r[0]: r[-1] for r in rows}
        edges = [tuple(line.split()) for line in
                 cites.read_text().strip().split("\n")]
        g = graph.from_edge_list(edges, nodes=sorted(label_of))
        classes = sorted(set(label_of.values()))
        y = np.array([classes.index(label_of[str(lab)])
                      for lab in g.node_labels])
        acc_floor, link_floor, source = 0.70, 0.80, "cora"
        k = 16
    else:
        edges, blocks = datasets.sbm_edges([30, 30],
                                           [[0.9, 0.02], [0.02, 0.9]],
                                           seed=7)
        # Pin index order so embedding rows line up with the block labels.
        g = graph.from_edge_list(edges, nodes=range(60))
        y = np.asarray(blocks)
        acc_floor, link_floor, source = 0.95, 0.90, "sbm fallback"
        k = 4
    Q = g.modularity_matrix()
    emb = sphere_embed(Q, SphereConfig(n_dims=k, beta=0.5, seed=0)).embedding.H_hat
    cls = classify(emb, y, train_fraction=0.5, repetitions=100, seed=0)
    link = link_predict(g, emb, train_fraction=0.5, repetitions=10, seed=0)
    elapsed = time.monotonic() - started
    _report(9, cls.accuracy >= acc_floor and link.accuracy >= link_floor
            and elapsed < 600.0,
            f"{source}: classify {cls.accuracy:.4f} (>= {acc_floor}), "
            f"link {link.accuracy:.4f} (>= {link_floor}) in {elapsed:.1f}s "
            f"(< 600s)")


def test_criterion_10_linear_sweep_scaling():
    """Per-sweep op counts double (ratio in [1.5, 2.5]) as n doubles."""
    ops = []
    for n in (10_000, 20_000, 40_000):
        edges = datasets.barabasi_albert_edges(n, 3, seed=42)
        g = graph.from_edge_list(edges, nodes=range(n))
        result = run(g.modularity_matrix(),
                     ClusterConfig(n_clusters=8, theta=20.0, max_sweeps=2,
                                   seed=0))
        ops.append(float(np.mean(result.climb.counts)))
    ratios = [ops[1] / ops[0], ops[2] / ops[1]]
    ok = all(1.5 <= r <= 2.5 for r in ratios)
    _report(10, ok,
            f"ops per sweep {[int(o) for o in ops]} at n=10k/20k/40k, "
            f"doubling ratios {[round(r, 4) for r in ratios]} in [1.5, 2.5]")


def test_criterion_11_cli_determinism(tmp_path):
    """Three identical CLI invocations rerun byte-for-byte identical."""
    karate_file = tmp_path / "karate.tsv"
    graph.save_edge_list(karate_file,
                         graph.from_edge_list(datasets.karate_club_edges()))
    er_file = tmp_path / "er.tsv"
    er_file.write_text("".join(
        f"{u}\t{w}\n" for u, w in datasets.erdos_renyi_edges(60, 0.1, seed=9)))

    commands = {
        "cafe": ["embed", "cafe", "--graph", str(karate_file), "--k", "4",
                 "--seed", "0"],
        "sphere": ["embed", "sphere", "--graph", str(er_file), "--k", "3",
                   "--seed", "1"],
        "reduce": ["reduce", "--cloud", "circles", "--k", "6", "--seed", "0"],
    }
    mismatches = []
    for name, argv in commands.items():
        digests = []
        for attempt in ("a", "b"):
            workdir = tmp_path / f"{name}_{attempt}"
            workdir.mkdir()
            out = workdir / "out.tsv"
            assert cli_main(argv + ["--out", str(out)]) == 0
            data_files = sorted(p for p in workdir.iterdir()
                                if not p.name.endswith(".manifest.json"))
            digests.append([hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in data_files])
            # The manifest must agree on output digests too.
            manifest = json.loads(
                (workdir / "out.tsv.manifest.json").read_text())
            assert set(manifest["outputs"].values()) == {
                hashlib.sha256(p.read_bytes()).hexdigest()
                for p in data_files
            }
        if digests[0] != digests[1]:
            mismatches.append(name)
    _report(11, not mismatches,
            f"3 commands x 2 runs: outputs byte-identical "
            f"(mismatches: {mismatches or 'none'})")
