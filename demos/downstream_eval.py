#!/usr/bin/env python3
"""Score embeddings on node classification and link prediction.

Embeds a planted two-block graph with both pipelines and reports
aggregate metrics over seeded repeated splits, the same harness the
`modembed eval` subcommand drives.
"""
import numpy as np

from modembed import ClusterConfig, SphereConfig, cafe_embed, from_edge_list, sphere_embed
from modembed.datasets import sbm_edges
from modembed.tasks import classify, link_predict


def main():
    edges, blocks = sbm_edges([30, 30], [[0.9, 0.02], [0.02, 0.9]], seed=7)
    # Index order pinned so embedding rows line up with the labels.
    g = from_edge_list(edges, nodes=range(60))
    y = np.asarray(blocks)
    Q = g.modularity_matrix()

    variants = {
        "sphere K=4": sphere_embed(
            Q, SphereConfig(n_dims=4, beta=0.5, seed=0)).embedding.H_hat,
        "cafe   K=2": cafe_embed(
            Q, ClusterConfig(n_clusters=2, theta=80.0, seed=0)).embedding.H_hat,
    }

    print(f"two-block graph: n={g.n}, edges={sum(1 for _ in g.edges())}")
    print()
    print(f"{'embedding':>12} {'task':>9} {'accuracy':>15} {'macro-F1':>9} {'AUC':>7}")
    for name, emb in variants.items():
        cls = classify(emb, y, train_fraction=0.5, repetitions=100, seed=0)
        auc = "n/a" if cls.roc_auc is None else f"{cls.roc_auc:.4f}"
        print(f"{name:>12} {'classify':>9} "
              f"{cls.accuracy:>8.4f}+/-{cls.accuracy_std:<6.4f}"
              f"{cls.macro_f1:>8.4f} {auc:>7}")
        link = link_predict(g, emb, train_fraction=0.5, repetitions=10, seed=0)
        print(f"{name:>12} {'link':>9} "
              f"{link.accuracy:>8.4f}+/-{link.accuracy_std:<6.4f}"
              f"{link.macro_f1:>8.4f} {'':>7}")
    print()
    print("note: link prediction embeds the full graph before splitting "
          "pairs, so read it as a relative signal between variants.")


if __name__ == "__main__":
    main()
