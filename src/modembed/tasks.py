"""Downstream evaluation of embeddings: node classification and link
prediction.

The classifier is a deliberately plain multinomial logistic regression
(full-batch gradient descent, fixed step, small L2 penalty) so results
depend on the embedding, not on tuned model machinery.  Features are
standardized with train-split statistics inside the solver.

Link prediction scores pairs by concatenated endpoint embeddings against
an equal number of uniformly sampled non-edges.  The embeddings are
assumed to have been trained on the full graph, so held-out edges did
influence them; results measure pair separability in embedding space,
not inductive generalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .graph import _write_rows

__all__ = [
    "MetricSummary",
    "SoftmaxRegression",
    "stratified_split",
    "accuracy_score",
    "macro_f1_score",
    "roc_auc_ovr",
    "classify",
    "link_predict",
    "load_labels",
    "save_metrics_tsv",
]

# The classifier's fixed iteration count, gradient step and L2 penalty on
# the weights.
_ITERATIONS = 500
_STEP = 0.1
_L2 = 1e-4


@dataclass
class MetricSummary:
    """Mean and spread over repetitions; roc_auc is None when one-vs-rest
    AUC is not applicable (a dataset class with a single member)."""

    accuracy: float
    accuracy_std: float
    macro_f1: float
    macro_f1_std: float
    roc_auc: float | None
    roc_auc_std: float | None

    def rows(self):
        out = [
            ("accuracy", self.accuracy, self.accuracy_std),
            ("macro_f1", self.macro_f1, self.macro_f1_std),
        ]
        if self.roc_auc is not None:
            out.append(("roc_auc_ovr", self.roc_auc, self.roc_auc_std))
        return out


class SoftmaxRegression:
    """Multinomial logistic regression by full-batch gradient descent.

    Fixed recipe: 500 iterations, step 0.1, L2 penalty 1e-4 on weights
    (not the bias), features z-scored with training statistics.  The
    zero initialization makes fits deterministic.
    """

    def __init__(self, n_classes):
        self.n_classes = int(n_classes)
        self.W = None
        self.b = None
        self._mean = None
        self._scale = None

    def _standardize(self, X):
        return (X - self._mean) / self._scale

    def fit(self, X, y):
        """Gradient descent, all of it in one compiled call
        (`_native.fit`) when the library is available, else in
        preallocated numpy buffers.

        Each step computes the same values as the plain expression
        `P = softmax(Z W + b); G = P - Y; W -= step (Z^T G / m + l2 W);
        b -= step mean(G)`, so W and b come out bit for bit the same.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        self._mean = X.mean(axis=0)
        std = X.std(axis=0)
        self._scale = np.where(std > 0.0, std, 1.0)
        Z = self._standardize(X)
        m, d = Z.shape
        C = self.n_classes
        Y = np.zeros((m, C))
        Y[np.arange(m), y] = 1.0
        self.W = W = np.zeros((d, C))
        self.b = b = np.zeros(C)
        if _native.fit(Z, Y, W, b, _ITERATIONS, _STEP, _L2) is not None:
            return self
        ZT = Z.T
        G = np.empty((m, C))  # logits, then P, then P - Y
        columns = list(G.T)
        row_max, row_sum = np.empty(m), np.empty((m, 1))
        grad_W, decay, grad_b = np.empty((d, C)), np.empty((d, C)), np.empty(C)
        step, l2 = _STEP, _L2
        matmul, add, subtract, multiply, divide, exp, maximum = (
            np.matmul, np.add, np.subtract, np.multiply, np.divide, np.exp,
            np.maximum)
        for _ in range(_ITERATIONS):
            matmul(Z, W, G)
            add(G, b, G)
            # Row maxima column by column: far fewer inner loops than a
            # reduction over rows of length C.  A maximum does not round,
            # and the one thing its order can change, the sign of a zero
            # maximum, is lost when exp(logit - max) is taken.
            row_max[...] = columns[0]
            for column in columns[1:]:
                maximum(row_max, column, out=row_max)
            subtract(G, row_max[:, None], G)
            exp(G, G)
            add.reduce(G, 1, None, row_sum, True)
            divide(G, row_sum, G)
            subtract(G, Y, G)
            matmul(ZT, G, grad_W)
            divide(grad_W, m, grad_W)
            multiply(l2, W, decay)
            add(grad_W, decay, grad_W)
            multiply(step, grad_W, grad_W)
            subtract(W, grad_W, W)
            add.reduce(G, 0, None, grad_b)
            divide(grad_b, m, grad_b)
            multiply(step, grad_b, grad_b)
            subtract(b, grad_b, b)
        return self

    @staticmethod
    def _softmax(logits):
        logits = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        return e / e.sum(axis=1, keepdims=True)

    def predict_proba(self, X):
        Z = self._standardize(np.asarray(X, dtype=float))
        return self._softmax(Z @ self.W + self.b)


def stratified_split(y, train_fraction, rng):
    """Class-proportional train/test indices.

    Within each class the train count is round(fraction * size), clamped
    so both sides stay nonempty when the class has at least two members;
    a singleton class goes entirely to train.  Returns (train, test) as
    sorted int64 arrays.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    y = np.asarray(y, dtype=int)
    train, test = [], []
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        members = members[rng.permutation(members.size)]
        if members.size == 1:
            train.extend(members.tolist())
            continue
        k = int(round(train_fraction * members.size))
        k = min(max(k, 1), members.size - 1)
        train.extend(members[:k].tolist())
        test.extend(members[k:].tolist())
    return (np.array(sorted(train), dtype=np.int64),
            np.array(sorted(test), dtype=np.int64))


def accuracy_score(y_true, y_pred):
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        raise ValueError("empty test set")
    return float((y_true == y_pred).mean())


def macro_f1_score(y_true, y_pred):
    """F1 averaged over the classes present in the truth; degenerate
    precision/recall terms count as zero."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    scores = []
    for cls in np.unique(y_true):
        tp = int(((y_pred == cls) & (y_true == cls)).sum())
        fp = int(((y_pred == cls) & (y_true != cls)).sum())
        fn = int(((y_pred != cls) & (y_true == cls)).sum())
        denom = 2 * tp + fp + fn
        scores.append(2.0 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


def rankdata(values):
    """Average ranks from 1, ties sharing the mean of their positions
    (scipy.stats.rankdata's default); all NaN if any value is NaN."""
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        return np.full(values.shape, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new = np.ones(values.size, dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    group = np.cumsum(new) - 1
    bounds = np.append(np.flatnonzero(new), values.size)
    ranks = np.empty(values.size)
    # A tie group over sorted positions [a, b) has mean rank (a + b + 1) / 2.
    ranks[order] = 0.5 * (bounds[group] + bounds[group + 1] + 1)
    return ranks


def roc_auc_ovr(y_true, scores):
    """One-vs-rest AUC by the rank statistic, macro-averaged over classes
    with both positives and negatives present; None if no class
    qualifies."""
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=float)
    aucs = []
    for cls in range(scores.shape[1]):
        pos = y_true == cls
        n_pos = int(pos.sum())
        n_neg = y_true.size - n_pos
        if n_pos == 0 or n_neg == 0:
            continue
        ranks = rankdata(scores[:, cls])
        u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
        aucs.append(u / (n_pos * n_neg))
    if not aucs:
        return None
    return float(np.mean(aucs))


def _summarize(per_rep):
    arr = np.array(per_rep, dtype=float)
    return float(arr.mean()), float(arr.std())


def _evaluate(draw, train_fraction, repetitions, seed):
    """Repeated stratified splits of the dataset `draw(rng) -> (features,
    y)`; each repetition draws its RNG stream from (seed, repetition) so
    runs are reproducible and independent.  AUC is reported when no
    class of y has a single member."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    accs, f1s, aucs = [], [], []
    for rep in range(repetitions):
        rng = np.random.default_rng([seed, rep])
        X, y = draw(rng)
        n_classes = int(y.max()) + 1
        auc_applicable = (np.bincount(y, minlength=n_classes) != 1).all()
        train, test = stratified_split(y, train_fraction, rng)
        if not test.size:
            raise ValueError("empty test set")
        model = SoftmaxRegression(n_classes).fit(X[train], y[train])
        proba = model.predict_proba(X[test])
        pred = np.argmax(proba, axis=1)
        accs.append(accuracy_score(y[test], pred))
        f1s.append(macro_f1_score(y[test], pred))
        auc = roc_auc_ovr(y[test], proba) if auc_applicable else None
        if auc is not None:
            aucs.append(auc)
    acc_m, acc_s = _summarize(accs)
    f1_m, f1_s = _summarize(f1s)
    auc_m, auc_s = _summarize(aucs) if aucs else (None, None)
    return MetricSummary(acc_m, acc_s, f1_m, f1_s, auc_m, auc_s)


def classify(embeddings, y, train_fraction=0.5, repetitions=100, seed=0):
    """Node classification over repeated stratified splits."""
    X = np.asarray(embeddings, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.shape[0] != y.size:
        raise ValueError(
            f"{X.shape[0]} embedding rows vs {y.size} labels"
        )
    return _evaluate(lambda rng: (X, y), train_fraction, repetitions, seed)


def _non_edge_sample(graph, count, rng):
    """Uniformly sampled distinct non-adjacent pairs (u < w), rejecting
    edges and self pairs."""
    n = graph.n
    pairs = graph.edges()
    off_diagonal = int(np.count_nonzero(pairs[:, 0] != pairs[:, 1]))
    possible = n * (n - 1) // 2 - off_diagonal
    if possible < count:
        raise ValueError(
            f"graph too dense: only {possible} non-edges for {count} negatives"
        )
    chosen = set()
    out = []
    while len(out) < count:
        u = int(rng.integers(0, n))
        w = int(rng.integers(0, n))
        if u == w:
            continue
        if u > w:
            u, w = w, u
        if (u, w) in chosen or graph.pair_mass(u, w) > 0.0:
            continue
        chosen.add((u, w))
        out.append((u, w))
    return out


def link_predict(graph, embeddings, train_fraction=0.5, repetitions=10,
                 seed=0):
    """Balanced edge-versus-non-edge classification.

    Positives are the graph's undirected edges (u < w); each repetition
    samples an equal number of fresh negatives, splits both classes
    stratified, and fits the standard classifier on concatenated
    endpoint embeddings.
    """
    X = np.asarray(embeddings, dtype=float)
    if X.shape[0] != graph.n:
        raise ValueError(
            f"{X.shape[0]} embedding rows vs {graph.n} graph nodes"
        )
    positives = graph.edges()
    positives = positives[positives[:, 0] != positives[:, 1]]
    if not positives.size:
        raise ValueError("graph has no off-diagonal edges to predict")
    y = np.array([1] * len(positives) + [0] * len(positives))

    def draw(rng):
        negatives = _non_edge_sample(graph, len(positives), rng)
        pairs = np.vstack([positives, np.array(negatives, dtype=np.int64)])
        return np.hstack([X[pairs[:, 0]], X[pairs[:, 1]]]), y

    return _evaluate(draw, train_fraction, repetitions, seed)


def load_labels(path, graph):
    """Read `node<TAB>class` lines; every node must exist in the graph,
    and repeated nodes must agree on their class.  Errors name the first
    offending line.

    Returns (node indices, class ids, class names): the labelled nodes'
    graph indices in first-appearance order and their classes' ids in
    sorted-name order, both int64.  The compiled scanner reads the file
    when it can, finding the nodes among the labels of a scanned graph
    (see `_native.scan`); otherwise the line loop below does, with the
    same result or error.
    """
    scanned = _native.scan("labels", path, graph.node_labels)
    if scanned is not None:
        index, classes = scanned
    else:
        labels = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line or line.lstrip().startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 2:
                    error = (f"expected 'node<TAB>class', got {len(fields)} "
                             f"fields")
                elif labels.setdefault(*fields) != fields[1]:
                    error = f"conflicting class for node {fields[0]!r}"
                else:
                    continue
                # An unknown node on an earlier line is reported first;
                # the map's keys are the nodes in first-appearance order.
                graph.indices_of(list(labels))
                raise ValueError(f"{path}:{lineno}: {error}")
        index, classes = graph.indices_of(list(labels)), list(labels.values())
        if not labels:
            raise ValueError(f"{path}: no labels found")
    names = sorted(set(classes))
    class_id = dict(zip(names, range(len(names))))
    return index, np.array([class_id[c] for c in classes], np.int64), names


def save_metrics_tsv(path, summary):
    """Write `metric<TAB>mean<TAB>std` rows with 17 significant digits."""
    names, means, stds = zip(*summary.rows())
    _write_rows(path, np.array([means, stds]).T, names)
