"""Evaluation harness: metrics against hand counts, splits, determinism."""

import warnings

import numpy as np
import pytest

from modembed import graph
from modembed.cli import _load_label_ids
from modembed.tasks import (
    SoftmaxRegression,
    accuracy_score,
    classify,
    link_predict,
    load_labels,
    macro_f1_score,
    roc_auc_ovr,
    save_metrics_tsv,
    stratified_split,
)


def test_accuracy_hand_case():
    assert accuracy_score([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75
    with pytest.raises(ValueError):
        accuracy_score([], [])


def test_macro_f1_hand_case():
    # class 0: tp=1 fp=0 fn=1 -> 2/3; class 1: tp=2 fp=1 fn=0 -> 4/5.
    got = macro_f1_score([0, 0, 1, 1], [0, 1, 1, 1])
    assert abs(got - (2 / 3 + 4 / 5) / 2) < 1e-15
    # Truth class never predicted contributes zero.
    assert macro_f1_score([0, 1], [0, 0]) == pytest.approx((2 / 3) / 2)


def test_roc_auc_matches_pair_counting():
    """Rank-statistic AUC equals brute-force pair counting, ties at 1/2."""
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        y = rng.integers(0, 3, size=n)
        scores = np.round(rng.random((n, 3)), 1)  # ties likely
        got = roc_auc_ovr(y, scores)
        brute_terms = []
        for cls in range(3):
            pos = scores[y == cls, cls]
            neg = scores[y != cls, cls]
            if pos.size == 0 or neg.size == 0:
                continue
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            brute_terms.append((wins + 0.5 * ties) / (pos.size * neg.size))
        if not brute_terms:
            assert got is None
        else:
            assert abs(got - np.mean(brute_terms)) < 1e-12


def test_roc_auc_none_without_both_sides():
    assert roc_auc_ovr([0, 0], np.ones((2, 1))) is None


def test_stratified_split_proportions():
    y = np.array([0] * 10 + [1] * 6 + [2] * 1)
    rng = np.random.default_rng(5)
    train, test, singletons = stratified_split(y, 0.5, rng)
    assert singletons == [2]
    assert sorted(np.concatenate([train, test])) == list(range(17))
    assert (y[train] == 0).sum() == 5 and (y[test] == 0).sum() == 5
    assert (y[train] == 1).sum() == 3 and (y[test] == 1).sum() == 3
    assert 16 in train  # the singleton lands in train
    with pytest.raises(ValueError):
        stratified_split(y, 1.0, rng)


def test_stratified_split_keeps_both_sides_nonempty():
    y = np.array([0, 0, 1, 1])
    rng = np.random.default_rng(0)
    train, test, _ = stratified_split(y, 0.9, rng)
    assert (y[train] == 0).sum() == 1 and (y[test] == 0).sum() == 1


def test_stratified_split_of_singletons_has_an_empty_int_test_side():
    train, test, singletons = stratified_split(
        np.array([0, 1]), 0.5, np.random.default_rng(0))
    assert train.dtype == test.dtype == np.int64
    assert train.tolist() == [0, 1] and test.size == 0
    assert singletons == [0, 1]
    with pytest.raises(ValueError, match="^empty test set$"):
        classify(np.eye(2), [0, 1], repetitions=1)


def test_softmax_regression_separable_and_deterministic():
    rng = np.random.default_rng(8)
    X = np.vstack([
        rng.normal(-3.0, 0.3, size=(20, 2)),
        rng.normal(3.0, 0.3, size=(20, 2)),
    ])
    y = np.array([0] * 20 + [1] * 20)
    a = SoftmaxRegression(2).fit(X, y)
    b = SoftmaxRegression(2).fit(X, y)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)
    proba = a.predict_proba(X)
    assert accuracy_score(y, np.argmax(proba, axis=1)) == 1.0
    assert np.abs(proba.sum(axis=1) - 1.0).max() < 1e-12


def test_softmax_regression_constant_feature():
    """Zero-variance features must not divide by zero."""
    X = np.column_stack([np.ones(10), np.arange(10.0)])
    y = (np.arange(10) >= 5).astype(int)
    model = SoftmaxRegression(2).fit(X, y)
    pred = np.argmax(model.predict_proba(X), axis=1)
    assert accuracy_score(y, pred) == 1.0


def _blob_data(seed=3):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal(-2.0, 0.4, size=(15, 3)),
        rng.normal(2.0, 0.4, size=(15, 3)),
    ])
    y = np.array([0] * 15 + [1] * 15)
    return X, y


def test_classify_reproducible_and_accurate():
    X, y = _blob_data()
    a = classify(X, y, repetitions=5, seed=11)
    b = classify(X, y, repetitions=5, seed=11)
    assert a == b
    assert a.accuracy > 0.95
    assert a.roc_auc is not None and a.roc_auc > 0.95
    assert a.repetitions == 5
    # Different seeds draw different split streams even when the scores
    # coincide on separable data.
    s1, _, _ = stratified_split(y, 0.5, np.random.default_rng([11, 0]))
    s2, _, _ = stratified_split(y, 0.5, np.random.default_rng([12, 0]))
    assert not np.array_equal(s1, s2)


def test_classify_singleton_class_disables_auc():
    X = np.vstack([_blob_data()[0], [[0.0, 0.0, 0.0]]])
    y = np.array([0] * 15 + [1] * 15 + [2])
    summary = classify(X, y, repetitions=3, seed=0)
    assert summary.roc_auc is None
    assert all(name != "roc_auc_ovr" for name, _, _ in summary.rows())


def test_classify_shape_mismatch():
    with pytest.raises(ValueError, match="rows"):
        classify(np.zeros((4, 2)), [0, 1], repetitions=1)


@pytest.mark.parametrize("repetitions", [0, -1])
def test_evaluation_needs_a_repetition(repetitions):
    X, y = _blob_data()
    message = f"repetitions must be >= 1, got {repetitions}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            classify(X, y, repetitions=repetitions)
        with pytest.raises(ValueError, match=message):
            link_predict(_ring_graph(), np.zeros((12, 2)),
                         repetitions=repetitions)


def _ring_graph(n=12):
    return graph.from_edge_list([(i, (i + 1) % n) for i in range(n)])


def test_link_predict_runs_and_reproduces():
    g = _ring_graph()
    rng = np.random.default_rng(9)
    X = rng.standard_normal((g.n, 3))
    a = link_predict(g, X, repetitions=3, seed=5)
    b = link_predict(g, X, repetitions=3, seed=5)
    assert a == b
    assert 0.0 <= a.accuracy <= 1.0


def test_link_predict_rejects_dense_graph():
    from modembed.datasets import clique_edges
    g = graph.from_edge_list(clique_edges(range(5)))
    with pytest.raises(ValueError, match="too dense"):
        link_predict(g, np.zeros((5, 2)), repetitions=1)


def _named_graph():
    # String labels, like anything loaded from an edge-list file.
    return graph.from_edge_list([("a", "b"), ("b", "c"), ("a", "c"),
                                 ("c", "d")])


def test_load_labels_and_dataset(tmp_path):
    g = _named_graph()
    path = tmp_path / "labels.tsv"
    path.write_text("a\tleft\nd\tright\nb\tleft\n")
    labels, nodes = load_labels(path, g)
    assert labels == {"a": "left", "d": "right", "b": "left"}
    assert nodes.tolist() == [g.index_of(node) for node in labels]

    rng = np.random.default_rng(1)
    emb = rng.random((g.n, 2))
    nodes, classes, names = _load_label_ids(path, g)
    order = np.argsort(nodes)
    idx = nodes[order]
    X, y = emb[idx], classes[order]
    assert names == ["left", "right"]
    assert X.shape == (3, 2)
    # Rows follow sorted node index; class ids follow sorted names.
    assert y.tolist() == [0, 0, 1]
    assert idx.tolist() == sorted(nodes.tolist())
    assert np.array_equal(X, emb[idx])


def test_load_labels_rejects_bad_input(tmp_path):
    g = _named_graph()
    path = tmp_path / "labels.tsv"
    path.write_text("a\tleft\na\tright\n")
    with pytest.raises(ValueError, match="conflicting"):
        load_labels(path, g)
    path.write_text("nope\tleft\n")
    with pytest.raises(KeyError):
        load_labels(path, g)
    path.write_text("a left\n")
    with pytest.raises(ValueError, match="fields"):
        load_labels(path, g)
    path.write_text("# only comments\n")
    with pytest.raises(ValueError, match="no labels"):
        load_labels(path, g)


def test_save_metrics_tsv(tmp_path):
    X, y = _blob_data()
    summary = classify(X, y, repetitions=2, seed=1)
    path = tmp_path / "metrics.tsv"
    save_metrics_tsv(path, summary)
    lines = path.read_text().strip().split("\n")
    assert [line.split("\t")[0] for line in lines] == [
        "accuracy", "macro_f1", "roc_auc_ovr",
    ]
    assert float(lines[0].split("\t")[1]) == summary.accuracy
