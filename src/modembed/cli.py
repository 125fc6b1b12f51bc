"""Command-line interface.

Subcommands mirror the library stages: `embed` (cafe, multilayer,
sphere), `verify` (spectral alignment bounds for a two-cluster run),
`eigs` (oracle eigenpairs), `reduce` (point-cloud reduction), and `eval`
(classification / link prediction).  Every run is seeded, every output
file is TSV with 17 significant digits, and each command writes a JSON
manifest next to its primary output recording resolved parameters, input
digests, output digests, and the objective trace, so results can be
audited and reproduced byte for byte.  `--digest` additionally prints
each output file's sha256 to stdout.

Exit codes: 0 success (including a not-applicable verify), 1 on user
errors (bad flags, unreadable or malformed inputs), 2 on internal
failures (invariant or bound violations, non-convergence of the oracle).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, clustering
from .clustering import ClusterConfig, hard_labels
from .embedding import (
    cafe_embed,
    multilayer_embed,
    save_embedding_tsv,
    load_embedding_tsv,
)
from .graph import load_edge_list
from .pointcloud import (
    concentric_circles,
    load_xyz,
    reduce_cloud,
    torus_cloud,
)
from .spectral import ConvergenceError, alignment_bounds, eigendecompose
from .sphere import SphereConfig, sphere_embed
from .tasks import (
    classify,
    labeled_dataset,
    link_predict,
    load_labels,
    save_metrics_tsv,
)

__all__ = ["main", "build_parser"]

_BUILTIN_CLOUDS = {
    "circles": concentric_circles,
    "torus": torus_cloud,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap to 1 so exit
    code 2 stays reserved for internal failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(primary_out, command, params, input_paths, output_paths,
                    started, extra=None):
    manifest = {
        "command": command,
        "version": __version__,
        "params": params,
        "inputs": {
            name: {"path": str(p), "sha256": _sha256(p)}
            for name, p in input_paths.items()
        },
        "outputs": {str(p): _sha256(p) for p in output_paths},
        "wall_clock_s": round(time.time() - started, 6),
    }
    if extra:
        manifest.update(extra)
    path = f"{primary_out}.manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _print_digests(output_paths):
    for p in sorted(str(p) for p in output_paths):
        print(f"{_sha256(p)}  {p}")


def _load_label_ids(path, graph):
    """Label file -> (node indices, class ids, class names) with class ids
    in sorted-name order, one entry per labeled node."""
    label_map, nodes = load_labels(path, graph)
    class_names = sorted(set(label_map.values()))
    class_id = {name: i for i, name in enumerate(class_names)}
    classes = np.fromiter(map(class_id.__getitem__, label_map.values()),
                          np.int64, len(label_map))
    return nodes, classes, class_names


def _cmd_embed(args):
    started = time.time()
    graph = load_edge_list(args.graph)
    Q = graph.modularity_matrix()
    inputs = {"graph": args.graph}
    outputs = []
    extra = {}
    if args.theta is None:
        args.theta = clustering.HARD_THETA if args.mode == "multilayer" else 50.0

    if args.mode == "sphere":
        if args.k is None:
            raise ValueError("embed sphere requires --k")
        config = SphereConfig(
            n_dims=args.k, beta=args.beta, max_sweeps=args.max_sweeps,
            tol=args.tol, seed=args.seed,
        )
        result = sphere_embed(Q, config)
        save_embedding_tsv(args.out, result.embedding.H_hat, graph.node_labels)
        outputs.append(args.out)
        extra["objective_trace"] = result.objective_trace
        extra["degenerate_updates"] = result.degenerate_updates
        print(
            f"C={result.embedding.C} objective={result.objective:.12g} "
            f"sweeps={result.sweeps} converged={result.converged}"
        )
        params = {
            "mode": "sphere", "k": args.k, "beta": args.beta,
            "seed": args.seed, "tol": args.tol, "max_sweeps": args.max_sweeps,
        }

    elif args.mode == "cafe":
        pinned = None
        labels = None
        k = args.k
        if args.labels:
            inputs["labels"] = args.labels
            nodes, classes, class_names = _load_label_ids(args.labels, graph)
            if args.full_label:
                if nodes.size != graph.n:
                    raise ValueError(
                        f"--full-label needs every node labeled "
                        f"({nodes.size} of {graph.n} found)"
                    )
                labels = np.zeros(graph.n, dtype=int)
                labels[nodes] = classes
                k = len(class_names)
            else:
                pinned = dict(zip(nodes.tolist(), classes.tolist()))
                if k is None or k < len(class_names):
                    raise ValueError(
                        f"--k must be at least the {len(class_names)} labeled classes"
                    )
        elif args.full_label:
            raise ValueError("--full-label requires --labels")
        if k is None:
            raise ValueError("embed cafe requires --k")
        config = ClusterConfig(
            n_clusters=k, theta=args.theta, max_sweeps=args.max_sweeps,
            tol=args.tol, seed=args.seed,
        )
        result = cafe_embed(Q, config, pinned=pinned, labels=labels)
        save_embedding_tsv(args.out, result.embedding.H_hat, graph.node_labels)
        outputs.append(args.out)
        if args.assignment_out:
            save_embedding_tsv(
                args.assignment_out, result.assignment, graph.node_labels
            )
            outputs.append(args.assignment_out)
        extra["objective_trace"] = result.objective_trace
        print(
            f"C={result.C} objective={result.objective:.12g} "
            f"sweeps={result.sweeps} converged={result.converged}"
        )
        params = {
            "mode": "cafe", "k": k, "theta": args.theta, "seed": args.seed,
            "tol": args.tol, "max_sweeps": args.max_sweeps,
            "full_label": bool(args.full_label),
        }

    else:  # multilayer
        levels = multilayer_embed(
            Q, theta=args.theta, max_sweeps=args.max_sweeps,
            tol=args.tol, seed=args.seed,
        )
        stem, suffix = os.path.splitext(args.out)
        suffix = suffix or ".tsv"
        level_info = []
        for layer in levels:
            if layer.level == 0:
                path = args.out
                rows = layer.embedding.H_hat
            else:
                path = f"{stem}.level{layer.level}{suffix}"
                # Lift supernode embeddings back to original nodes.
                rows = layer.embedding.H_hat[layer.membership]
            save_embedding_tsv(path, rows, graph.node_labels)
            outputs.append(path)
            level_info.append({
                "level": layer.level,
                "clusters": int(layer.C),
                "columns": int(layer.embedding.C),
                "modularity": layer.modularity,
                "file": str(path),
            })
            print(
                f"level={layer.level} clusters={layer.C} "
                f"modularity={layer.modularity:.12g}"
            )
        membership_path = f"{stem}.membership{suffix}"
        member_rows = np.column_stack([layer.membership for layer in levels])
        save_embedding_tsv(membership_path, member_rows, graph.node_labels)
        outputs.append(membership_path)
        extra["levels"] = level_info
        params = {
            "mode": "multilayer", "theta": args.theta, "seed": args.seed,
            "tol": args.tol, "max_sweeps": args.max_sweeps,
        }

    manifest = _write_manifest(
        args.out, f"embed {args.mode}", params, inputs, outputs, started, extra
    )
    print(f"wrote {len(outputs)} file(s); manifest {manifest}")
    if args.digest:
        _print_digests(outputs)
    return 0


def _cmd_verify(args):
    started = time.time()
    graph = load_edge_list(args.graph)
    Q = graph.modularity_matrix()
    inputs = {"graph": args.graph}
    if args.k != 2:
        raise ValueError("verify checks two-cluster assignments; --k must be 2")
    if args.assignment:
        inputs["assignment"] = args.assignment
        labels, H = load_embedding_tsv(args.assignment)
        if labels != [str(lab) for lab in graph.node_labels]:
            raise ValueError("assignment rows do not match the graph's nodes")
        if H.shape[1] != 2:
            raise ValueError(f"assignment must have 2 columns, got {H.shape[1]}")
    else:
        config = ClusterConfig(
            n_clusters=2, theta=args.theta, max_sweeps=args.max_sweeps,
            tol=args.tol, seed=args.seed,
        )
        H = clustering.run(Q, config).assignment.H
    report = alignment_bounds(Q, H)
    rows = [
        ("lambda1", report.lambda1),
        ("lambda2", report.lambda2),
        ("lambda_min", report.lambda_min),
        ("delta1", report.delta1),
        ("epsilon", report.epsilon),
        ("cos_x", report.cos_x),
        ("bound_x", report.bound_x),
        ("cos_qx", report.cos_qx),
        ("bound_qx", report.bound_qx),
        ("applicable", float(report.applicable)),
        ("holds", float(report.holds)),
    ]
    for name, value in rows:
        print(f"{name}\t{value:.12g}")
    outputs = []
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for name, value in rows:
                fh.write(f"{name}\t{value:.17g}\n")
        outputs.append(args.out)
        _write_manifest(
            args.out, "verify",
            {"k": 2, "theta": args.theta, "seed": args.seed,
             "tol": args.tol, "max_sweeps": args.max_sweeps},
            inputs, outputs, started,
        )
    if args.digest:
        _print_digests(outputs)
    if report.applicable and not report.holds:
        print("bound violation", file=sys.stderr)
        return 2
    return 0


def _cmd_eigs(args):
    started = time.time()
    graph = load_edge_list(args.graph)
    Q = graph.modularity_matrix()
    spectrum = eigendecompose(Q, k=args.topk)
    with open(args.out, "w", encoding="utf-8") as fh:
        for rank, value in enumerate(spectrum.eigenvalues):
            fh.write(f"{rank}\t{value:.17g}\n")
    outputs = [args.out]
    if args.vectors_out:
        save_embedding_tsv(
            args.vectors_out, spectrum.eigenvectors, graph.node_labels
        )
        outputs.append(args.vectors_out)
    head = ", ".join(f"{v:.6g}" for v in spectrum.eigenvalues[:5])
    print(f"eigenvalues ({spectrum.eigenvalues.size}): {head} ...")
    _write_manifest(
        args.out, "eigs", {"topk": args.topk}, {"graph": args.graph},
        outputs, started,
    )
    if args.digest:
        _print_digests(outputs)
    return 0


def _cmd_reduce(args):
    started = time.time()
    inputs = {}
    if args.points:
        inputs["points"] = args.points
        points = load_xyz(args.points)
        source = args.points
    else:
        points = _BUILTIN_CLOUDS[args.cloud]()
        source = f"builtin:{args.cloud}"
    result = reduce_cloud(
        points, args.k, theta=args.theta, method=args.method,
        seed=args.seed, beta=args.beta, max_sweeps=args.max_sweeps,
        tol=args.tol,
    )
    node_labels = list(range(points.shape[0]))
    save_embedding_tsv(args.out, result.embedding, node_labels)
    stem, suffix = os.path.splitext(args.out)
    suffix = suffix or ".tsv"
    residual_path = f"{stem}.residuals{suffix}"
    with open(residual_path, "w", encoding="utf-8") as fh:
        for j, (res, sel) in enumerate(zip(result.residuals, result.selected)):
            fh.write(f"{j}\t{res:.17g}\t{int(sel)}\n")
    recon_path = f"{stem}.reconstruction{suffix}"
    save_embedding_tsv(recon_path, result.reconstruction, node_labels)
    outputs = [args.out, residual_path, recon_path]
    kept = int(result.selected.sum())
    print(
        f"columns={args.k} selected={kept} "
        f"residuals={np.array2string(result.residuals, precision=4)} "
        f"sweeps={result.sweeps} converged={result.converged}"
    )
    _write_manifest(
        args.out, "reduce",
        {"source": source, "k": args.k, "theta": args.theta,
         "method": args.method, "beta": args.beta, "seed": args.seed,
         "tol": args.tol, "max_sweeps": args.max_sweeps},
        inputs, outputs, started,
    )
    if args.digest:
        _print_digests(outputs)
    return 0


def _cmd_eval(args):
    started = time.time()
    emb_labels, X = load_embedding_tsv(args.embeddings)
    inputs = {"embeddings": args.embeddings}
    if args.task == "classify":
        graph = load_edge_list(args.graph)
        inputs["graph"] = args.graph
        inputs["labels"] = args.labels
        if emb_labels != [str(lab) for lab in graph.node_labels]:
            raise ValueError("embedding rows do not match the graph's nodes")
        label_map, nodes = load_labels(args.labels, graph)
        Xl, y, class_names, _ = labeled_dataset(X, graph, label_map, nodes)
        summary = classify(
            Xl, y, train_fraction=args.train, repetitions=args.reps,
            seed=args.seed,
        )
    else:
        graph = load_edge_list(args.graph)
        inputs["graph"] = args.graph
        if emb_labels != [str(lab) for lab in graph.node_labels]:
            raise ValueError("embedding rows do not match the graph's nodes")
        summary = link_predict(
            graph, X, train_fraction=args.train, repetitions=args.reps,
            seed=args.seed,
        )
    save_metrics_tsv(args.out, summary)
    for name, mean, std in summary.rows():
        print(f"{name}\t{mean:.6f}\t±{std:.6f}")
    _write_manifest(
        args.out, f"eval {args.task}",
        {"train": args.train, "reps": args.reps, "seed": args.seed},
        inputs, [args.out], started,
    )
    if args.digest:
        _print_digests([args.out])
    return 0


def _add_common(parser, *, theta_default=50.0, theta_help=None):
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="objective-change convergence threshold")
    parser.add_argument("--max-sweeps", type=int, default=200,
                        help="cap on full passes over the nodes")
    parser.add_argument("--theta", type=float, default=theta_default,
                        help=theta_help
                        or "inverse temperature of the softmax update")
    parser.add_argument("--digest", action="store_true",
                        help="print sha256 of each output file")


def build_parser():
    parser = _Parser(
        prog="modembed",
        description="Sparse-graph embeddings by modularity trace maximization.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    embed = sub.add_parser("embed", help="compute node embeddings")
    embed.add_argument("mode", choices=("cafe", "multilayer", "sphere"),
                       help="clustering pipeline, multi-level hierarchy, or "
                            "unit-sphere iteration")
    embed.add_argument("--graph", required=True, help="edge-list file")
    embed.add_argument("--k", type=int, default=None,
                       help="clusters (cafe) or dimensions (sphere)")
    embed.add_argument("--beta", type=float, default=0.5,
                       help="sphere blend weight in [0, 1]")
    embed.add_argument("--labels", default=None,
                       help="node<TAB>class file pinning known nodes")
    embed.add_argument("--full-label", action="store_true",
                       help="all nodes labeled: skip clustering entirely")
    embed.add_argument("--assignment-out", default=None,
                       help="also write the soft assignment rows (cafe)")
    embed.add_argument("--out", required=True, help="embedding TSV path")
    _add_common(
        embed, theta_default=None,
        theta_help="inverse temperature (default 50 for cafe; multilayer "
                   "defaults to the hard argmax limit)",
    )
    embed.set_defaults(func=_cmd_embed)

    verify = sub.add_parser(
        "verify", help="check spectral alignment bounds for a K=2 run"
    )
    verify.add_argument("--graph", required=True, help="edge-list file")
    verify.add_argument("--k", type=int, default=2,
                        help="must be 2 (bounds address two clusters)")
    verify.add_argument("--assignment", default=None,
                        help="reuse a saved soft assignment instead of "
                             "re-running the clustering")
    verify.add_argument("--out", default=None, help="optional report TSV")
    _add_common(verify)
    verify.set_defaults(func=_cmd_verify)

    eigs = sub.add_parser("eigs", help="oracle eigenvalues/eigenvectors")
    eigs.add_argument("--graph", required=True, help="edge-list file")
    eigs.add_argument("--topk", type=int, default=None,
                      help="leading pairs only (default: full spectrum)")
    eigs.add_argument("--vectors-out", default=None,
                      help="also write eigenvector columns per node")
    eigs.add_argument("--out", required=True, help="eigenvalue TSV path")
    eigs.add_argument("--digest", action="store_true",
                      help="print sha256 of each output file")
    eigs.set_defaults(func=_cmd_eigs)

    reduce_p = sub.add_parser("reduce", help="embed a point cloud")
    src = reduce_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--points", default=None,
                     help="whitespace x y [z] coordinate file")
    src.add_argument("--cloud", choices=sorted(_BUILTIN_CLOUDS),
                     default=None, help="built-in demo cloud")
    reduce_p.add_argument("--k", type=int, required=True,
                          help="embedding columns")
    reduce_p.add_argument("--method", choices=("cafe", "sphere"),
                          default="cafe")
    reduce_p.add_argument("--beta", type=float, default=0.5,
                          help="sphere blend weight in [0, 1]")
    reduce_p.add_argument("--out", required=True, help="embedding TSV path")
    _add_common(reduce_p, theta_default=0.010)
    reduce_p.set_defaults(func=_cmd_reduce)

    ev = sub.add_parser("eval", help="score embeddings on downstream tasks")
    ev.add_argument("task", choices=("classify", "link"))
    ev.add_argument("--graph", required=True, help="edge-list file")
    ev.add_argument("--embeddings", required=True, help="embedding TSV")
    ev.add_argument("--labels", default=None,
                    help="node<TAB>class file (classify)")
    ev.add_argument("--train", type=float, default=0.5,
                    help="train fraction per split")
    ev.add_argument("--reps", type=int, default=10,
                    help="repetitions to aggregate")
    ev.add_argument("--seed", type=int, default=0, help="RNG seed")
    ev.add_argument("--out", required=True, help="metric TSV path")
    ev.add_argument("--digest", action="store_true",
                    help="print sha256 of each output file")
    ev.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "task", None) == "classify" and not args.labels:
        print("error: eval classify requires --labels", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is an internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
