#!/usr/bin/env python3
"""Recover a planted two-level hierarchy by repeated coarsening.

Builds a graph of four blocks that merge pairwise into two superblocks,
runs the multi-level pipeline, and prints how each level's clusters map
onto the planted structure.
"""
import numpy as np

from modembed import from_edge_list, multilayer_embed
from modembed.datasets import two_level_block_edges


def main():
    edges, truth = two_level_block_edges(25, 0.6, 0.22, 0.02, seed=1)
    g = from_edge_list(edges, nodes=range(100))
    print(f"planted: 4 blocks of 25, merging into 2 superblocks "
          f"(n={g.n}, edges={sum(1 for _ in g.edges())})")
    print()

    levels = multilayer_embed(g.modularity_matrix(), seed=0)
    for lvl in levels:
        print(f"level {lvl.level}: {lvl.C} clusters, "
              f"modularity {lvl.modularity:.4f}")
        # Cross-tabulate found clusters against the planted fine blocks.
        for c in range(lvl.C):
            members = np.flatnonzero(lvl.membership == c)
            blocks = np.bincount(np.asarray(truth)[members], minlength=4)
            print(f"  cluster {c}: {len(members):3d} nodes, "
                  f"planted-block counts {blocks.tolist()}")
    print()

    fine, coarse = levels[0], levels[-1]
    lifted = {c: sorted(int(s) for s in
                        set(coarse.membership[fine.membership == c]))
              for c in range(fine.C)}
    print("refinement (fine cluster -> coarse cluster):", lifted)
    print("modularity strictly increases level to level:",
          [round(l.modularity, 4) for l in levels])


if __name__ == "__main__":
    main()
