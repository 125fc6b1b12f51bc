"""End-to-end CLI: files in, files out, manifests, exit codes."""

import contextlib
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modembed import _native, cli, clustering, datasets, pointcloud, spectral
from modembed.cli import build_parser, main
from modembed.graph import from_edge_list, load_edge_list, save_edge_list
from modembed.embedding import load_embedding_tsv, save_embedding_tsv
from modembed.spectral import AlignmentReport, ConvergenceError
from modembed.tasks import classify, save_metrics_tsv


ROOT = Path(__file__).resolve().parents[1]


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def sbm_file(tmp_path):
    edges, blocks = datasets.sbm_edges([12, 12], [[0.8, 0.05], [0.05, 0.8]],
                                       seed=3)
    path = tmp_path / "sbm.tsv"
    path.write_text("".join(f"{u}\t{w}\n" for u, w in edges))
    labels = tmp_path / "labels.tsv"
    labels.write_text("".join(
        f"{node}\t{'left' if b == 0 else 'right'}\n"
        for node, b in enumerate(blocks)
    ))
    return path, labels


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "modembed", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_embed_cafe_writes_output_and_manifest(tmp_path, sbm_file, capsys):
    graph_path, _ = sbm_file
    out = tmp_path / "emb.tsv"
    code = main(["embed", "cafe", "--graph", str(graph_path), "--k", "2",
                 "--seed", "0", "--out", str(out), "--digest"])
    assert code == 0
    labels, H = load_embedding_tsv(out)
    assert len(labels) == 24 and H.shape[1] == 1  # stochastic rank drop

    manifest = json.loads((tmp_path / "emb.tsv.manifest.json").read_text())
    assert manifest["command"] == "embed cafe"
    assert manifest["params"]["k"] == 2
    assert manifest["params"]["theta"] == 50.0  # resolved default recorded
    assert manifest["outputs"][str(out)] == _sha(out)
    assert manifest["inputs"]["graph"]["sha256"] == _sha(graph_path)
    assert manifest["objective_trace"]
    assert "wall_clock_s" in manifest

    stdout = capsys.readouterr().out
    assert f"{_sha(out)}  {out}" in stdout
    assert "C=1" in stdout


def test_embed_cafe_assignment_out(tmp_path, sbm_file):
    graph_path, _ = sbm_file
    out = tmp_path / "emb.tsv"
    assignment = tmp_path / "soft.tsv"
    code = main(["embed", "cafe", "--graph", str(graph_path), "--k", "2",
                 "--out", str(out), "--assignment-out", str(assignment)])
    assert code == 0
    _, H = load_embedding_tsv(assignment)
    assert H.shape == (24, 2)
    assert np.abs(H.sum(axis=1) - 1.0).max() < 1e-12


def test_embed_cafe_label_modes(tmp_path, sbm_file):
    graph_path, labels_path = sbm_file
    out = tmp_path / "emb.tsv"
    # Full labels: no clustering, indicator embedding.
    code = main(["embed", "cafe", "--graph", str(graph_path),
                 "--labels", str(labels_path), "--full-label",
                 "--out", str(out)])
    assert code == 0
    _, H = load_embedding_tsv(out)
    assert H.shape == (24, 1)

    # Partial labels pin rows; --k must cover the observed classes.
    partial = tmp_path / "partial.tsv"
    partial.write_text("0\tleft\n12\tright\n")
    code = main(["embed", "cafe", "--graph", str(graph_path),
                 "--labels", str(partial), "--k", "1",
                 "--out", str(out)])
    assert code == 1
    code = main(["embed", "cafe", "--graph", str(graph_path),
                 "--labels", str(partial), "--k", "2",
                 "--out", str(out)])
    assert code == 0

    # --full-label with missing nodes is a user error.
    code = main(["embed", "cafe", "--graph", str(graph_path),
                 "--labels", str(partial), "--full-label",
                 "--out", str(out)])
    assert code == 1


def test_full_label_refuses_a_k_other_than_the_class_count(
        tmp_path, sbm_file, capsys):
    graph_path, labels_path = sbm_file
    run = ["embed", "cafe", "--graph", str(graph_path), "--labels",
           str(labels_path), "--full-label", "--out"]
    wrong = tmp_path / "wrong.tsv"
    capsys.readouterr()
    assert main(run + [str(wrong), "--k", "7"]) == 1
    err = capsys.readouterr().err
    assert "--k 7" in err and "2 classes" in err
    assert not wrong.exists()
    # A --k that matches changes nothing.
    plain, same = tmp_path / "plain.tsv", tmp_path / "same.tsv"
    assert main(run + [str(plain)]) == 0
    assert main(run + [str(same), "--k", "2"]) == 0
    assert same.read_bytes() == plain.read_bytes()
    manifest = json.loads(Path(f"{same}.manifest.json").read_text())
    assert manifest["params"]["k"] == 2


def test_embed_cafe_requires_k(tmp_path, sbm_file):
    graph_path, _ = sbm_file
    code = main(["embed", "cafe", "--graph", str(graph_path),
                 "--out", str(tmp_path / "e.tsv")])
    assert code == 1


def test_embed_multilayer_outputs(tmp_path, sbm_file, capsys):
    graph_path, _ = sbm_file
    out = tmp_path / "ml.tsv"
    code = main(["embed", "multilayer", "--graph", str(graph_path),
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    assert out.exists()
    membership = tmp_path / "ml.membership.tsv"
    labels, M = load_embedding_tsv(membership)
    assert len(labels) == 24
    manifest = json.loads((tmp_path / "ml.tsv.manifest.json").read_text())
    assert manifest["params"]["theta"] == clustering.HARD_THETA
    assert manifest["levels"][0]["level"] == 0
    assert "level=0" in capsys.readouterr().out
    # Per-level files exist for every reported level.
    for entry in manifest["levels"]:
        assert (tmp_path / entry["file"].split("/")[-1]).exists()


def test_embed_sphere(tmp_path, sbm_file, capsys):
    graph_path, _ = sbm_file
    out = tmp_path / "sphere.tsv"
    code = main(["embed", "sphere", "--graph", str(graph_path), "--k", "4",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    _, H = load_embedding_tsv(out)
    assert H.shape == (24, 4)
    assert "C=4" in capsys.readouterr().out

    code = main(["embed", "sphere", "--graph", str(graph_path),
                 "--out", str(out)])
    assert code == 1  # --k required


def test_verify_reports_and_passes(tmp_path, sbm_file, capsys):
    graph_path, _ = sbm_file
    out = tmp_path / "report.tsv"
    code = main(["verify", "--graph", str(graph_path), "--theta", "80",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    rows = dict(line.split("\t") for line in stdout.strip().split("\n"))
    assert set(rows) == {
        "lambda1", "lambda2", "lambda_min", "delta1", "epsilon",
        "cos_x", "bound_x", "cos_qx", "bound_qx", "applicable", "holds",
    }
    assert rows["applicable"] == "1" and rows["holds"] == "1"
    assert out.exists() and (tmp_path / "report.tsv.manifest.json").exists()


def test_verify_accepts_saved_assignment(tmp_path, sbm_file):
    graph_path, _ = sbm_file
    emb = tmp_path / "emb.tsv"
    soft = tmp_path / "soft.tsv"
    main(["embed", "cafe", "--graph", str(graph_path), "--k", "2",
          "--theta", "80", "--out", str(emb), "--assignment-out", str(soft)])
    code = main(["verify", "--graph", str(graph_path),
                 "--assignment", str(soft)])
    assert code == 0
    # A one-column file is not a two-cluster assignment.
    code = main(["verify", "--graph", str(graph_path),
                 "--assignment", str(emb)])
    assert code == 1


def test_verify_records_clustering_params_only_when_it_clusters(
        tmp_path, sbm_file):
    graph_path, _ = sbm_file
    soft = tmp_path / "soft.tsv"
    main(["embed", "cafe", "--graph", str(graph_path), "--k", "2",
          "--theta", "80", "--out", str(tmp_path / "emb.tsv"),
          "--assignment-out", str(soft)])
    sweep = ["--theta", "123", "--seed", "9", "--tol", "0.5",
             "--max-sweeps", "3"]
    reused, clustered = tmp_path / "reused.tsv", tmp_path / "clustered.tsv"
    assert main(["verify", "--graph", str(graph_path), "--assignment",
                 str(soft), "--out", str(reused)] + sweep) == 0
    assert main(["verify", "--graph", str(graph_path), "--out",
                 str(clustered)] + sweep) == 0

    def params(path):
        return json.loads(Path(f"{path}.manifest.json").read_text())["params"]

    assert params(reused) == {"k": 2}
    # Only a run that climbs records its sweeps and why it stopped.
    reused_manifest = json.loads(Path(f"{reused}.manifest.json").read_text())
    assert "sweeps" not in reused_manifest
    assert "stop_reason" not in reused_manifest
    assert params(clustered) == {"k": 2, "theta": 123.0, "seed": 9,
                                 "tol": 0.5, "max_sweeps": 3}
    # The sweep options do not reach a reused assignment's report.
    again = tmp_path / "again.tsv"
    assert main(["verify", "--graph", str(graph_path), "--assignment",
                 str(soft), "--out", str(again)]) == 0
    assert again.read_bytes() == reused.read_bytes()


def test_verify_k_must_be_two(tmp_path, sbm_file):
    graph_path, _ = sbm_file
    code = main(["verify", "--graph", str(graph_path), "--k", "3"])
    assert code == 1


def test_eigs_matches_numpy(tmp_path, sbm_file, capsys):
    graph_path, _ = sbm_file
    out = tmp_path / "eigs.tsv"
    code = main(["eigs", "--graph", str(graph_path), "--topk", "2",
                 "--out", str(out)])
    assert code == 0
    got = [float(line.split("\t")[1])
           for line in out.read_text().strip().split("\n")]
    Qd = load_edge_list(graph_path).modularity_matrix().dense()
    want = np.sort(np.linalg.eigvalsh(Qd))[::-1][:2]
    assert np.abs(np.array(got) - want).max() < 1e-8

    vectors = tmp_path / "vecs.tsv"
    code = main(["eigs", "--graph", str(graph_path), "--out", str(out),
                 "--vectors-out", str(vectors)])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 24  # full spectrum
    _, V = load_embedding_tsv(vectors)
    assert V.shape == (24, 24)


def test_reduce_builtin_cloud(tmp_path, capsys):
    out = tmp_path / "red.tsv"
    code = main(["reduce", "--cloud", "circles", "--k", "6",
                 "--out", str(out)])
    assert code == 0
    res_lines = (tmp_path / "red.residuals.tsv").read_text().strip().split("\n")
    selected = [int(line.split("\t")[2]) for line in res_lines]
    assert sum(selected) == 2
    assert (tmp_path / "red.reconstruction.tsv").exists()
    assert "selected=2" in capsys.readouterr().out


def test_reduce_points_file(tmp_path):
    rng = np.random.default_rng(4)
    angles = rng.uniform(0.0, 2 * np.pi, size=60)
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    cloud = tmp_path / "cloud.xyz"
    np.savetxt(cloud, pts, fmt="%.17g")
    out = tmp_path / "red.tsv"
    code = main(["reduce", "--points", str(cloud), "--k", "3",
                 "--out", str(out)])
    assert code == 0
    _, H = load_embedding_tsv(out)
    assert H.shape == (60, 3)


def test_eval_classify_and_link(tmp_path, sbm_file, capsys):
    graph_path, labels_path = sbm_file
    emb = tmp_path / "emb.tsv"
    main(["embed", "sphere", "--graph", str(graph_path), "--k", "4",
          "--seed", "0", "--out", str(emb)])

    metrics = tmp_path / "cls.tsv"
    code = main(["eval", "classify", "--graph", str(graph_path),
                 "--embeddings", str(emb), "--labels", str(labels_path),
                 "--reps", "5", "--out", str(metrics)])
    assert code == 0
    rows = dict((line.split("\t")[0], float(line.split("\t")[1]))
                for line in metrics.read_text().strip().split("\n"))
    assert rows["accuracy"] > 0.8
    assert set(rows) == {"accuracy", "macro_f1", "roc_auc_ovr"}

    link_metrics = tmp_path / "link.tsv"
    code = main(["eval", "link", "--graph", str(graph_path),
                 "--embeddings", str(emb), "--reps", "3",
                 "--out", str(link_metrics)])
    assert code == 0
    assert link_metrics.exists()


def oracle_labeled_dataset(embeddings, graph, label_map, nodes):
    """The rows and class ids `eval classify` fed to `classify` when the
    CLI built them from `load_labels`' {node: class} map and node
    indices."""
    X = np.asarray(embeddings, dtype=float)
    if X.shape[0] != graph.n:
        raise ValueError(
            f"{X.shape[0]} embedding rows vs {graph.n} graph nodes"
        )
    class_names = sorted(set(label_map.values()))
    class_id = {name: i for i, name in enumerate(class_names)}
    y = np.fromiter(map(class_id.__getitem__, label_map.values()), np.int64,
                    len(label_map))
    order = np.argsort(nodes)
    idx = nodes[order]
    return X[idx], y[order], class_names, idx


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(order=st.permutations(range(24)), labelled=st.integers(6, 23),
       names=st.lists(st.sampled_from(["b", "a", "c", "10", "9"]),
                      min_size=2, max_size=3, unique=True),
       repeats=st.lists(st.integers(0, 5), max_size=3))
def test_eval_classify_matches_former_dataset(tmp_path, sbm_file, order,
                                              labelled, names, repeats):
    """Label files in any line order, some nodes unlabelled, some lines
    repeated: the metrics file is `classify` on the old dataset's arrays."""
    graph_path, _ = sbm_file
    g = load_edge_list(graph_path)
    emb = tmp_path / "emb.tsv"
    save_embedding_tsv(emb, np.random.default_rng(labelled).standard_normal(
        (g.n, 3)), g.node_labels)
    lines = [f"{g.node_labels[u]}\t{names[k % len(names)]}\n"
             for k, u in enumerate(order[:labelled])]
    labels = tmp_path / "labels.tsv"
    labels.write_text("".join(lines + [lines[k] for k in repeats]))
    out = tmp_path / "new.tsv"
    assert main(["eval", "classify", "--graph", str(graph_path),
                 "--embeddings", str(emb), "--labels", str(labels),
                 "--reps", "3", "--seed", "5", "--out", str(out)]) == 0
    label_map = dict(line.split("\t") for line in labels.read_text(
    ).splitlines())
    X, y, _, _ = oracle_labeled_dataset(load_embedding_tsv(emb)[1], g,
                                        label_map,
                                        g.indices_of(list(label_map)))
    save_metrics_tsv(tmp_path / "old.tsv",
                     classify(X, y, repetitions=3, seed=5))
    assert out.read_bytes() == (tmp_path / "old.tsv").read_bytes()


def test_reduce_rejects_more_columns_than_points(tmp_path, capsys):
    """--k above the point count fails before any sweep; --k equal to it
    runs."""
    cloud = tmp_path / "cloud.xyz"
    cloud.write_text("0 0\n1 0\n0 1\n1 1.5\n")
    out = tmp_path / "red.tsv"
    with mock.patch.object(clustering, "run", side_effect=AssertionError):
        code = main(["reduce", "--points", str(cloud), "--k", "6",
                     "--out", str(out)])
    assert code == 1
    assert "error: n_dims=6 exceeds the 4 points" in capsys.readouterr().err
    assert not out.exists()
    assert main(["reduce", "--points", str(cloud), "--k", "4",
                 "--out", str(out)]) == 0
    assert load_embedding_tsv(out)[1].shape == (4, 4)


@pytest.mark.parametrize("argv, field", [
    (["reduce", "--cloud", "circles", "--k", "3", "--theta", "inf"], "theta"),
    (["embed", "cafe", "--k", "2", "--theta", "inf"], "theta"),
    (["verify", "--theta", "inf"], "theta"),
    (["embed", "multilayer", "--theta", "inf"], "theta"),
    (["embed", "cafe", "--k", "2", "--tol", "nan"], "tol"),
    (["embed", "sphere", "--k", "2", "--tol=-1e-9"], "tol"),
    (["embed", "sphere", "--k", "2", "--tol", "inf"], "tol"),
    (["embed", "multilayer", "--tol", "nan"], "tol"),
    (["reduce", "--cloud", "circles", "--k", "3", "--method", "sphere",
      "--tol", "nan"], "tol"),
    (["verify", "--tol=-1"], "tol"),
], ids=["reduce-theta", "cafe-theta", "verify-theta", "multilayer-theta",
        "cafe-tol", "sphere-tol", "sphere-tol-inf", "multilayer-tol",
        "reduce-sphere-tol", "verify-tol"])
def test_infinite_theta_and_bad_tol_are_user_errors(tmp_path, sbm_file,
                                                     capsys, argv, field):
    """An infinite theta would run every sweep and write NaN rows, a NaN
    or negative tol could never be met and an infinite one is met by any
    first sweep: all fail before any sweep, naming the option, and write
    nothing."""
    graph_path, _ = sbm_file
    out = tmp_path / "out.tsv"
    if argv[0] != "reduce":
        argv = argv + ["--graph", str(graph_path)]
    assert main(argv + ["--out", str(out)]) == 1
    assert f"error: {field} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["embed", "cafe", "--k", "2"], ["embed", "sphere", "--k", "2"],
    ["embed", "multilayer"], ["verify"],
    ["reduce", "--cloud", "circles", "--k", "2"],
    ["reduce", "--cloud", "circles", "--k", "2", "--method", "sphere"],
    ["eval", "classify"], ["eval", "link"],
], ids=["cafe", "sphere", "multilayer", "verify", "reduce-cafe",
        "reduce-sphere", "eval-classify", "eval-link"])
def test_a_negative_seed_is_a_user_error_naming_the_seed(tmp_path, sbm_file,
                                                         capsys, argv):
    """numpy's generator refuses a negative seed in words that name no
    option; every sweep configuration and the eval tasks refuse it first,
    by name."""
    graph_path, labels_path = sbm_file
    out = tmp_path / "out.tsv"
    if argv[0] != "reduce":
        argv = argv + ["--graph", str(graph_path)]
    if argv[0] == "eval":
        emb = tmp_path / "emb.tsv"
        assert main(["embed", "sphere", "--graph", str(graph_path), "--k",
                     "2", "--out", str(emb)]) == 0
        capsys.readouterr()
        argv = argv + ["--embeddings", str(emb), "--labels",
                       str(labels_path)]
    assert main(argv + ["--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_digest_lines_are_the_manifest_digests(tmp_path, sbm_file, capsys,
                                               monkeypatch):
    """--digest prints the digests the manifest computed, without reading
    the outputs again: one hash per input and output."""
    graph_path, _ = sbm_file
    out, assignment = tmp_path / "emb.tsv", tmp_path / "h.tsv"
    hashed = []
    monkeypatch.setattr(cli, "_sha256",
                        lambda path, _hash=cli._sha256:
                        hashed.append(str(path)) or _hash(path))
    assert main(["embed", "cafe", "--graph", str(graph_path), "--k", "2",
                 "--out", str(out), "--assignment-out", str(assignment),
                 "--digest"]) == 0
    assert sorted(hashed) == sorted(map(str, (graph_path, out, assignment)))
    digests = _manifest(out)["outputs"]
    lines = capsys.readouterr().out.splitlines()[-2:]
    assert lines == [f"{digests[p]}  {p}" for p in sorted(digests)]
    assert digests == {str(p): _sha(p) for p in (out, assignment)}


def test_verify_rejects_a_one_node_graph(tmp_path, capsys):
    path = tmp_path / "one.tsv"
    path.write_text("a a\n")
    code = main(["verify", "--graph", str(path),
                 "--out", str(tmp_path / "v.tsv")])
    assert code == 1
    assert "error: alignment bounds need lambda2, so at least 2 nodes; " \
        "the graph has n=1" in capsys.readouterr().err
    assert not (tmp_path / "v.tsv").exists()


def test_embed_multilayer_refuses_graphs_above_the_dense_limit(tmp_path,
                                                               capsys):
    path = tmp_path / "path.tsv"
    path.write_text("".join(f"{i}\t{i + 1}\n" for i in range(5000)))
    out = tmp_path / "emb.tsv"
    with mock.patch.object(clustering, "run", side_effect=AssertionError):
        code = main(["embed", "multilayer", "--graph", str(path),
                     "--out", str(out)])
    assert code == 1
    assert "refusing a dense K = n first level at n=5001 (> 5000)" in \
        capsys.readouterr().err
    assert not out.exists()


def test_embed_multilayer_on_a_saved_clique_is_a_user_error(tmp_path,
                                                            capsys):
    """A 5-clique read back from its file gives a one-cluster level 0
    whose Q H is rounding noise, as the clique built in memory gives an
    exact zero: both are nothing to embed, and nothing is written."""
    path, out = tmp_path / "clique.tsv", tmp_path / "ml.tsv"
    save_edge_list(path, from_edge_list(datasets.clique_edges(range(5))))
    assert main(["embed", "multilayer", "--graph", str(path),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: Q H is identically zero; nothing to embed\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clique.tsv"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_reduce_rejects_non_finite_points(tmp_path, capsys, value):
    cloud = tmp_path / "cloud.xyz"
    cloud.write_text("0 0\n1 0\n0 1\n1 1\n%s 2\n2 2\n" % value)
    code = main(["reduce", "--points", str(cloud), "--k", "2",
                 "--out", str(tmp_path / "red.tsv")])
    assert code == 1
    assert f"{cloud}:5: bad coordinate" in capsys.readouterr().err
    assert not (tmp_path / "red.tsv").exists()


def test_eval_rejects_zero_reps(tmp_path, sbm_file, capsys):
    graph_path, _ = sbm_file
    emb = tmp_path / "emb.tsv"
    main(["embed", "sphere", "--graph", str(graph_path), "--k", "2",
          "--out", str(emb)])
    capsys.readouterr()
    out = tmp_path / "link.tsv"
    code = main(["eval", "link", "--graph", str(graph_path),
                 "--embeddings", str(emb), "--reps", "0", "--out", str(out)])
    assert code == 1
    assert "repetitions must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_eval_classify_requires_labels(tmp_path, sbm_file):
    graph_path, _ = sbm_file
    code = main(["eval", "classify", "--graph", str(graph_path),
                 "--embeddings", str(tmp_path / "none.tsv"),
                 "--out", str(tmp_path / "m.tsv")])
    assert code == 1


def test_eval_rejects_mismatched_embeddings(tmp_path, sbm_file):
    graph_path, labels_path = sbm_file
    emb = tmp_path / "emb.tsv"
    emb.write_text("onlynode\t1.0\n")
    code = main(["eval", "classify", "--graph", str(graph_path),
                 "--embeddings", str(emb), "--labels", str(labels_path),
                 "--out", str(tmp_path / "m.tsv")])
    assert code == 1


def test_eval_classify_rejects_a_split_without_test_nodes(tmp_path, capsys):
    """Every labelled class has one member, so each goes whole to train."""
    graph_path, labels, emb = (tmp_path / name for name in
                               ("g.tsv", "l.tsv", "e.tsv"))
    graph_path.write_text("a\tb\nb\tc\n")
    labels.write_text("a\tx\nb\ty\n")
    emb.write_text("a\t1\t0\nb\t0\t1\nc\t1\t1\n")
    out = tmp_path / "m.tsv"
    code = main(["eval", "classify", "--graph", str(graph_path),
                 "--embeddings", str(emb), "--labels", str(labels),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: empty test set\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["verify", "classify", "link"])
def test_non_finite_rows_are_user_errors(tmp_path, sbm_file, capsys, command,
                                         value):
    graph_path, labels_path = sbm_file
    nodes = load_edge_list(graph_path).node_labels
    rows = np.full((len(nodes), 2), 0.5)
    rows[5, 1] = float(value)
    emb = tmp_path / "rows.tsv"
    save_embedding_tsv(emb, rows, nodes)
    out = tmp_path / "out.tsv"
    if command == "verify":
        argv = ["verify", "--assignment", str(emb)]
    else:
        argv = ["eval", command, "--embeddings", str(emb), "--labels",
                str(labels_path)]
    code = main(argv + ["--graph", str(graph_path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {emb}: non-finite value in the row of node "
        f"{str(nodes[5])!r}\n")
    assert not out.exists()


def test_missing_input_is_user_error(tmp_path):
    code = main(["embed", "cafe", "--graph", str(tmp_path / "absent.tsv"),
                 "--k", "2", "--out", str(tmp_path / "e.tsv")])
    assert code == 1


def test_malformed_graph_is_user_error(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a b c d e\n")
    code = main(["embed", "cafe", "--graph", str(bad), "--k", "2",
                 "--out", str(tmp_path / "e.tsv")])
    assert code == 1


def test_usage_errors_exit_one(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["embed", "cafe", "--out", str(tmp_path / "e.tsv")])
    assert exc.value.code == 1  # --graph is required
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--graph", "g.tsv", "cafe", "--k", "2",
              "--out", str(tmp_path / "e.tsv")])
    assert exc.value.code == 1  # options follow the mode word


# --- exit codes of the branches no other test takes -------------------------

@pytest.mark.parametrize("error, message", [
    (ConvergenceError("no convergence after 9 sweeps"),
     "internal error: no convergence after 9 sweeps\n"),
    (RuntimeError("boom"), "internal error: RuntimeError: boom\n"),
])
def test_internal_failures_exit_two(tmp_path, sbm_file, capsys, error,
                                    message):
    graph_path, _ = sbm_file
    out = tmp_path / "eigs.tsv"
    with mock.patch.object(cli, "eigendecompose", side_effect=error):
        assert main(["eigs", "--graph", str(graph_path),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_verify_exits_two_on_a_bound_violation(tmp_path, sbm_file, capsys):
    """The report is still written, with its manifest."""
    graph_path, _ = sbm_file
    report = AlignmentReport(*[0.5] * 9, applicable=True, holds=False)
    out = tmp_path / "v.tsv"
    with mock.patch.object(cli, "alignment_bounds", return_value=report):
        assert main(["verify", "--graph", str(graph_path),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == "bound violation\n"
    assert out.read_text().endswith("applicable\t1\nholds\t0\n")
    assert _manifest(out)["command"] == "verify"


def _rows_file(path, labels, rows):
    save_embedding_tsv(path, np.array(rows, dtype=float), labels)
    return str(path)


@pytest.mark.parametrize("case", [
    "full-label-without-labels", "assignment-rows", "assignment-zero",
    "topk-zero", "mixed-widths", "bad-coordinate", "no-points",
    "link-self-loops"])
def test_user_errors_exit_one_naming_the_fault(tmp_path, sbm_file, capsys,
                                               case):
    graph_path, _ = sbm_file
    nodes = load_edge_list(graph_path).node_labels
    out = tmp_path / "out.tsv"
    cloud = tmp_path / "cloud.xyz"
    graph = ["--graph", str(graph_path)]
    argv, message = {
        "full-label-without-labels": (
            ["embed", "cafe", *graph, "--k", "2", "--full-label"],
            "error: --full-label requires --labels\n"),
        "assignment-rows": (
            ["verify", *graph, "--assignment", _rows_file(
                tmp_path / "rev.tsv", nodes[::-1], [[0.5, 0.5]] * len(nodes))],
            "error: assignment rows do not match the graph's nodes\n"),
        "assignment-zero": (
            ["verify", *graph, "--assignment", _rows_file(
                tmp_path / "a.tsv", nodes, [[0.0, 1.0]] * len(nodes))],
            "error: first assignment column is identically zero\n"),
        "topk-zero": (["eigs", *graph, "--topk", "0"],
                      "error: k must lie in [1, 24], got 0\n"),
        "mixed-widths": (["reduce", "--points", str(cloud), "--k", "2"],
                         f"error: {cloud}:2: inconsistent column count\n"),
        "bad-coordinate": (["reduce", "--points", str(cloud), "--k", "2"],
                           f"error: {cloud}:2: bad coordinate\n"),
        "no-points": (["reduce", "--points", str(cloud), "--k", "2"],
                      f"error: {cloud}: empty point cloud\n"),
        "link-self-loops": (
            ["eval", "link", "--graph", str(tmp_path / "loops.tsv"),
             "--embeddings", _rows_file(tmp_path / "e.tsv", ["a", "b"],
                                        [[1.0], [2.0]])],
            "error: graph has no off-diagonal edges to predict\n"),
    }[case]
    cloud.write_text({"mixed-widths": "0 0\n1 0 1\n",
                      "bad-coordinate": "0 0\n1 x\n",
                      "no-points": "# nothing\n\n"}.get(case, ""))
    (tmp_path / "loops.tsv").write_text("a a\nb b\n")
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


# --- manifests record only what a run reads, as strict JSON -----------------

def _strict_manifest(path):
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(Path(f"{path}.manifest.json").read_text(),
                      parse_constant=refuse)


def test_reduce_records_only_the_weight_its_method_reads(tmp_path):
    """Neither method reads the other's weight, so an infinite one is
    neither checked nor recorded."""
    out = tmp_path / "red.tsv"
    run = ["reduce", "--cloud", "circles", "--k", "2", "--out", str(out)]
    assert main(run + ["--method", "sphere", "--theta", "inf"]) == 0
    params = _strict_manifest(out)["params"]
    assert params["beta"] == 0.5 and "theta" not in params
    assert main(run + ["--method", "cafe", "--beta", "inf"]) == 0
    params = _strict_manifest(out)["params"]
    assert params["theta"] == 0.01 and "beta" not in params


def test_full_label_manifest_records_no_sweep_settings(tmp_path, sbm_file):
    """No sweep runs, so there are no sweep settings, trace or stop
    reason to record."""
    graph_path, labels_path = sbm_file
    out = tmp_path / "full.tsv"
    assert main(["embed", "cafe", "--graph", str(graph_path), "--labels",
                 str(labels_path), "--full-label", "--theta", "7",
                 "--seed", "3", "--out", str(out)]) == 0
    manifest = _strict_manifest(out)
    assert manifest["params"] == {"mode": "cafe", "k": 2, "full_label": True}
    assert "stop_reason" not in manifest
    assert "objective_trace" not in manifest


@pytest.mark.parametrize("option", [
    ["--theta", "inf"], ["--theta", "-1"], ["--tol", "nan"],
    ["--tol", "-1"], ["--max-sweeps", "-3"], ["--max-sweeps", "0"],
    ["--seed", "-5"]])
def test_full_label_ignores_the_sweep_options(tmp_path, sbm_file, option):
    """A full-label run reads no sweep setting, so none is checked: any
    value gives the bytes of a run without it."""
    graph_path, labels_path = sbm_file
    run = ["embed", "cafe", "--graph", str(graph_path), "--labels",
           str(labels_path), "--full-label", "--out"]
    plain, other = tmp_path / "plain.tsv", tmp_path / "other.tsv"
    assert main(run + [str(plain)]) == 0
    assert main(run + [str(other)] + option) == 0
    assert other.read_bytes() == plain.read_bytes()
    assert _strict_manifest(other)["params"] == \
        _strict_manifest(plain)["params"]


def test_manifests_record_the_rank_decision(tmp_path, sbm_file):
    """cafe and sphere manifests and each multilayer level name the
    columns of Q H dropped as dependent."""
    graph_path, labels_path = sbm_file
    full, cafe, sph, ml = (tmp_path / f"{name}.tsv"
                           for name in ("full", "cafe", "sphere", "ml"))
    assert main(["embed", "cafe", "--graph", str(graph_path), "--labels",
                 str(labels_path), "--full-label", "--out", str(full)]) == 0
    assert main(["embed", "cafe", "--graph", str(graph_path), "--k", "3",
                 "--out", str(cafe)]) == 0
    assert main(["embed", "sphere", "--graph", str(graph_path), "--k", "26",
                 "--out", str(sph)]) == 0
    assert main(["embed", "multilayer", "--graph", str(graph_path),
                 "--out", str(ml)]) == 0
    records = [_strict_manifest(full), _strict_manifest(cafe),
               _strict_manifest(sph), *_strict_manifest(ml)["levels"]]
    for record in records:
        assert all(type(j) is int for j in record["dropped_columns"])
    # Two label columns sum to the all-ones vector, which Q maps to 0.
    assert records[0]["dropped_columns"] == [1]
    # Q has rank at most n - 1 = 23, so at least 3 of 26 columns go.
    kept = len(sph.read_text().splitlines()[0].split("\t")) - 1
    assert len(records[2]["dropped_columns"]) == 26 - kept >= 3
    assert all(len(r["dropped_columns"]) ==
               r["clusters"] - r["columns"] for r in records[3:])


def test_manifest_refuses_a_non_finite_value(tmp_path):
    out = tmp_path / "o.tsv"
    out.write_text("a\t1\n")
    with pytest.raises(ValueError, match="JSON"):
        cli._write_manifest("eigs", {"topk": float("nan")}, {}, [out], 0.0,
                            None)
    assert not Path(f"{out}.manifest.json").exists()


def _load_bench_run():
    """bench/run.py as a module, loaded without writing bytecode under
    bench/.  It imports its sibling modules by name and turns bytecode
    writing off; both are undone here."""
    bench = str(ROOT / "bench")
    saved = sys.dont_write_bytecode
    sys.path.insert(0, bench)
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_run",
                                                      ROOT / "bench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(bench)
        sys.dont_write_bytecode = saved
    return run


def test_every_bench_command_parses():
    """The benchmark's command lines run as child processes, where a
    parse error only shows as a failed operation."""
    expected = {
        "embed cafe": cli._cmd_embed_cafe,
        "embed sphere": cli._cmd_embed_sphere,
        "embed multilayer": cli._cmd_embed_multilayer,
        "eval classify": cli._cmd_eval,
        "verify": cli._cmd_verify,
        "eigs": cli._cmd_eigs,
        "reduce": cli._cmd_reduce,
    }
    parser = build_parser()
    seen = set()
    for workload in _load_bench_run().WORKLOADS.values():
        for cmd in workload.commands:
            words = cmd.args[:2] if cmd.args[0] in ("embed", "eval") \
                else cmd.args[:1]
            key = " ".join(words)
            assert parser.parse_args(cmd.args).func is expected[key], key
            seen.add(key)
    assert seen == set(expected)


@pytest.mark.parametrize("case", [
    ("sphere", "--theta", "5"),
    ("sphere", "--labels", "y.tsv"),
    ("sphere", "--full-label"),
    ("sphere", "--assignment-out", "a.tsv"),
    ("multilayer", "--k", "3"),
    ("multilayer", "--beta", "0.5"),
    ("multilayer", "--labels", "y.tsv"),
    ("cafe", "--beta", "0.5"),
], ids=lambda case: "".join(case[:2]))
def test_embed_modes_reject_options_they_never_read(tmp_path, sbm_file,
                                                    capsys, case):
    graph_path, _ = sbm_file
    out = tmp_path / "e.tsv"
    with pytest.raises(SystemExit) as exc:
        main(["embed", *case, "--graph", str(graph_path), "--out", str(out)])
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_identical_invocations_are_byte_identical(tmp_path, sbm_file):
    graph_path, _ = sbm_file
    args = ["embed", "cafe", "--graph", str(graph_path), "--k", "3",
            "--seed", "7"]
    out1 = tmp_path / "a.tsv"
    out2 = tmp_path / "b.tsv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# --- manifests: which path ran, why the sweeps stopped ----------------------

def _manifest(path):
    return json.loads(Path(f"{path}.manifest.json").read_text())


def _compiled_path(compiled):
    """The compiled loops as found, or none at all."""
    if compiled:
        if _native.library() is None:
            pytest.skip("no compiled library")
        return contextlib.nullcontext()
    return mock.patch.object(_native, "library", lambda: None)


def test_manifests_record_the_blas_thread_count(tmp_path, sbm_file):
    """The thread count of numpy's OpenBLAS, on which some output bytes
    depend, is a positive int, recorded in the manifest; it is None, and
    the manifest strict JSON, when no loaded library exports its getter."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in str(blas.get("name")):
        pytest.skip("numpy is not built on OpenBLAS")
    threads = _native.blas_threads()
    assert type(threads) is int and threads > 0
    with mock.patch.object(_native.ctypes, "CDLL", lambda path: object()):
        assert _native.blas_threads() is None
    graph_path, _ = sbm_file
    run = ["embed", "cafe", "--graph", str(graph_path), "--k", "2", "--out"]
    found, missing = tmp_path / "found.tsv", tmp_path / "missing.tsv"
    assert main(run + [str(found)]) == 0
    with mock.patch.object(_native, "blas_threads", lambda: None):
        assert main(run + [str(missing)]) == 0
    assert _strict_manifest(found)["blas_threads"] == threads
    assert _strict_manifest(missing)["blas_threads"] is None


@pytest.mark.parametrize("compiled", [True, False])
def test_manifests_record_the_path_and_the_stop_reason(tmp_path, sbm_file,
                                                       capsys, compiled):
    graph_path, labels_path = sbm_file
    g = str(graph_path)
    runs = {
        "cafe": ["embed", "cafe", "--graph", g, "--k", "2"],
        "capped": ["embed", "cafe", "--graph", g, "--k", "3",
                   "--max-sweeps", "1", "--tol", "0"],
        "sphere": ["embed", "sphere", "--graph", g, "--k", "3",
                   "--max-sweeps", "2", "--tol", "0"],
        "reduce": ["reduce", "--cloud", "circles", "--k", "2"],
        "multilayer": ["embed", "multilayer", "--graph", g],
        "ml-capped": ["embed", "multilayer", "--graph", g,
                      "--max-sweeps", "1", "--tol", "0"],
        "verify": ["verify", "--graph", g],
        "verify-capped": ["verify", "--graph", g, "--max-sweeps", "1",
                          "--tol", "0"],
        "eigs": ["eigs", "--graph", g, "--topk", "2"],
        "classify": ["eval", "classify", "--graph", g, "--embeddings",
                     str(tmp_path / "sphere.tsv"), "--labels",
                     str(labels_path), "--reps", "2"],
    }
    with _compiled_path(compiled):
        for name, argv in runs.items():
            out = tmp_path / f"{name}.tsv"
            assert main([*argv, "--out", str(out)]) == 0, name
            manifest = _manifest(out)
            assert manifest["compiled"] is compiled, name
            printed = capsys.readouterr().out
            if name in ("cafe", "capped", "sphere", "reduce"):
                converged = "converged=True" in printed
                assert "converged=False" in printed or converged
                assert manifest["stop_reason"] == (
                    "tol" if converged else "max_sweeps"), name
            elif name.startswith("ml"):
                # Each level records its own climb.
                assert "stop_reason" not in manifest, name
                assert all(level["stop_reason"] in ("tol", "max_sweeps")
                           and 1 <= level["sweeps"] <= 200
                           for level in manifest["levels"]), name
            elif name.startswith("verify"):
                assert manifest["stop_reason"] in ("tol", "max_sweeps")
                assert 1 <= manifest["sweeps"] <= 200, name
            else:
                assert "stop_reason" not in manifest, name
    for name in ("capped", "sphere", "verify-capped"):
        assert _manifest(tmp_path / f"{name}.tsv")["stop_reason"] == \
            "max_sweeps"
    assert _manifest(tmp_path / "verify-capped.tsv")["sweeps"] == 1
    capped = _manifest(tmp_path / "ml-capped.tsv")["levels"]
    assert {(level["sweeps"], level["stop_reason"]) for level in capped} == {
        (1, "max_sweeps")}
    level = _manifest(tmp_path / "multilayer.tsv")["levels"][0]
    assert level["stop_reason"] == "tol" and level["sweeps"] > 1
    assert _manifest(tmp_path / "cafe.tsv")["stop_reason"] == "tol"


# --- scipy is not a runtime dependency ---------------------------------------

# Runs `cli.main` on each argv list of the JSON file argv[2], in order.
# With argv[1] == "block", a meta-path finder first makes every import of
# scipy fail.
_RUN_COMMANDS = """
import json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

if sys.argv[1] == "block":
    sys.meta_path.insert(0, BlockScipy())
    try:
        import scipy
    except ImportError:
        pass
    else:
        sys.exit("scipy imported through the block")
from modembed.cli import main
for argv in json.load(open(sys.argv[2])):
    if main(argv) != 0:
        sys.exit(f"failed: {argv}")
"""


def test_every_command_runs_the_same_without_scipy(tmp_path, sbm_file):
    graph_path, labels_path = sbm_file
    g = str(graph_path)
    commands = [
        ["embed", "cafe", "--graph", g, "--k", "3", "--out", "cafe.tsv"],
        ["embed", "sphere", "--graph", g, "--k", "3", "--out", "sphere.tsv"],
        ["embed", "multilayer", "--graph", g, "--out", "ml.tsv"],
        ["verify", "--graph", g, "--out", "verify.tsv"],
        ["eigs", "--graph", g, "--topk", "3", "--vectors-out", "vec.tsv",
         "--out", "eigs.tsv"],
        ["eval", "classify", "--graph", g, "--embeddings", "sphere.tsv",
         "--labels", str(labels_path), "--reps", "3", "--out", "cls.tsv"],
    ]
    script = tmp_path / "run.py"
    script.write_text(_RUN_COMMANDS)
    (tmp_path / "commands.json").write_text(json.dumps(commands))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    written = {}
    for mode in ("block", "free"):
        work = tmp_path / mode
        work.mkdir()
        proc = subprocess.run(
            [sys.executable, str(script), mode,
             str(tmp_path / "commands.json")],
            cwd=work, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        written[mode] = {p.name: p.read_bytes()
                         for p in sorted(work.glob("*.tsv"))}
    assert {"cafe.tsv", "sphere.tsv", "ml.tsv", "ml.membership.tsv",
            "verify.tsv", "eigs.tsv", "vec.tsv", "cls.tsv"} <= set(
                written["free"])
    assert written["block"] == written["free"]


# --- the compiled library and the Python fallbacks ---------------------------

def test_multilayer_level0_tail_skips_the_zeros_of_hard_rows(tmp_path,
                                                             zero_skips):
    """On a 300-node planted partition, `embed multilayer`'s level 0
    (K = n) starts dense, so its objective takes the product store and
    its sweeps build no gather table, and ends with hard rows, whose
    objective sums over H's support and whose sweeps scatter neighbours
    from the table; no sweep at K < 32 scatters."""
    probs = np.full((6, 6), 0.005) + np.eye(6) * 0.2
    edges, _ = datasets.sbm_edges([50] * 6, probs, seed=32)
    path = tmp_path / "pp300.tsv"
    path.write_text("".join(f"{u}\t{w}\n" for u, w in edges))
    assert main(["embed", "multilayer", "--graph", str(path),
                 "--max-sweeps", "30", "--out", str(tmp_path / "ml.tsv")]) == 0
    level0 = [summed for k, summed in zero_skips.objective if k == 300]
    assert level0[0] == 0 and level0[-1] == 1
    gathers = [scattered for k, _, scattered in zero_skips.sweeps
               if k == 300]
    assert gathers[0] == 0 and gathers[-1] > 0
    assert any(k < 32 for k, _, _ in zero_skips.sweeps)
    assert all(scattered == 0 for k, _, scattered in zero_skips.sweeps
               if k < 32)


def test_every_command_shape_writes_the_same_bytes_without_the_library(
        tmp_path, zero_skips):
    """The benchmark's command shapes plus `embed cafe --full-label`,
    pinned `--labels`, the full `eigs` spectrum, `reduce --method sphere`
    and `eval link`, on a 120-node SBM, and `verify` on a 220-node SBM,
    past the Jacobi limit, so the Householder reduction and QL run: with
    the compiled library and with every Python fallback, each `.tsv` has
    the same bytes, and each command's manifest records the path every
    entry point it used took and the sha256 of every file it names.  The
    compiled multilayer run's level 0 (K = n = 120) reaches the three
    passes that skip H's zeros: the objective's sums over H's support,
    the support-only softmax row and the sweep's scattered gathers."""
    if _native.library() is None:
        pytest.skip("no compiled library")
    probs = np.full((3, 3), 0.03) + np.eye(3) * 0.27
    edges, blocks = datasets.sbm_edges([40, 40, 40], probs, seed=5)
    graph_path = tmp_path / "sbm.tsv"
    graph_path.write_text("".join(f"{u}\t{w}\n" for u, w in edges))
    edges, _ = datasets.sbm_edges([110, 110], np.array(
        [[0.2, 0.02], [0.02, 0.2]]), seed=6)
    large = tmp_path / "sbm220.tsv"
    large.write_text("".join(f"{u}\t{w}\n" for u, w in edges))
    assert len({v for edge in edges for v in edge}) > spectral._JACOBI_LIMIT
    classes = [f"{u}\tc{b}\n" for u, b in enumerate(blocks)]
    labels = tmp_path / "labels.tsv"
    labels.write_text("".join(classes))
    pinned = tmp_path / "pinned.tsv"
    pinned.write_text("".join(classes[::10]))
    points = tmp_path / "torus.xyz"
    np.savetxt(points, pointcloud.torus_cloud(200), fmt="%.17g")
    g = str(graph_path)
    # The entry points with a compiled path that each command runs.
    used = {"cafe.tsv": "apply build objective row_formatter scan sweep",
            "sphere.tsv": "apply build objective row_formatter scan sweep",
            "classify.tsv": "build fit row_formatter scan",
            "ml.tsv": "apply build objective row_formatter scan sweep",
            "verify.tsv": "apply build jacobi objective row_formatter scan "
                          "sweep",
            "verify220.tsv": "apply build householder objective ql "
                             "row_formatter scan sweep",
            "eigs.tsv": "apply build jacobi row_formatter scan",
            "reduce.tsv": "jacobi row_formatter sweep",
            "labels.tsv": "apply build objective row_formatter scan",
            "pinned.tsv": "apply build objective row_formatter scan sweep",
            "spectrum.tsv": "build jacobi row_formatter scan",
            "circles.tsv": "jacobi row_formatter sweep",
            "link.tsv": "build fit row_formatter scan"}
    written, paths, threads = {}, {}, {}
    for mode in ("compiled", "python"):
        d = tmp_path / mode
        d.mkdir()
        commands = [
            ["embed", "cafe", "--graph", g, "--k", "4", "--theta", "1e5",
             "--max-sweeps", "8", "--tol", "0",
             "--assignment-out", f"{d}/cafe.assign.tsv",
             "--out", f"{d}/cafe.tsv"],
            ["embed", "sphere", "--graph", g, "--k", "4", "--max-sweeps",
             "8", "--tol", "0", "--out", f"{d}/sphere.tsv"],
            ["eval", "classify", "--graph", g, "--embeddings",
             f"{d}/cafe.tsv", "--labels", str(labels), "--reps", "1",
             "--out", f"{d}/classify.tsv"],
            ["embed", "multilayer", "--graph", g, "--max-sweeps", "30",
             "--out", f"{d}/ml.tsv"],
            ["verify", "--graph", g, "--k", "2", "--theta", "2e4",
             "--out", f"{d}/verify.tsv"],
            ["verify", "--graph", str(large), "--k", "2", "--theta", "2e4",
             "--out", f"{d}/verify220.tsv"],
            ["eigs", "--graph", g, "--topk", "4", "--out", f"{d}/eigs.tsv"],
            ["reduce", "--points", str(points), "--k", "6", "--max-sweeps",
             "20", "--tol", "0", "--out", f"{d}/reduce.tsv"],
            ["embed", "cafe", "--graph", g, "--full-label", "--labels",
             str(labels), "--out", f"{d}/labels.tsv"],
            ["embed", "cafe", "--graph", g, "--k", "4", "--labels",
             str(pinned), "--out", f"{d}/pinned.tsv"],
            ["eigs", "--graph", g, "--vectors-out", f"{d}/vectors.tsv",
             "--out", f"{d}/spectrum.tsv"],
            ["reduce", "--cloud", "circles", "--k", "3", "--method",
             "sphere", "--out", f"{d}/circles.tsv"],
            ["eval", "link", "--graph", g, "--embeddings", f"{d}/sphere.tsv",
             "--reps", "1", "--out", f"{d}/link.tsv"],
        ]
        assert {Path(argv[-1]).name for argv in commands} == set(used)
        with _compiled_path(mode == "compiled"):
            for argv in commands:
                zero_skips.objective.clear()
                zero_skips.sweeps.clear()
                assert main(argv) == 0, argv
                if mode == "compiled" and argv[1] == "multilayer":
                    assert any(k == 120 and rows
                               for k, rows in zero_skips.objective)
                    assert any(k == 120 and rows and scattered
                               for k, rows, scattered in zero_skips.sweeps)
        assert _manifest(d / "cafe.tsv")["compiled"] is (mode == "compiled")
        written[mode] = {p.name: p.read_bytes() for p in d.glob("*.tsv")}
        manifests = {out: _manifest(d / out) for out in used}
        paths[mode] = {out: m["paths"] for out, m in manifests.items()}
        threads[mode] = {m["blas_threads"] for m in manifests.values()}
        for out, manifest in manifests.items():
            named = [*manifest["outputs"].items(), *(
                (e["path"], e["sha256"]) for e in manifest["inputs"].values())]
            for path, digest in named:
                assert digest == _sha(Path(path)), (out, path)
    assert len(written["compiled"]) == 20, sorted(written["compiled"])
    assert written["python"] == written["compiled"]
    assert threads["python"] == threads["compiled"] == {
        _native.blas_threads()}
    for mode, recorded in paths.items():
        assert recorded == {out: dict.fromkeys(entries.split(), mode)
                            for out, entries in used.items()}, mode
