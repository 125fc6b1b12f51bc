"""Command-line interface.

Subcommands mirror the library stages: `embed` (cafe, multilayer,
sphere), `verify` (spectral alignment bounds for a two-cluster run),
`eigs` (oracle eigenpairs), `reduce` (point-cloud reduction), and `eval`
(classification / link prediction).  Each `embed` mode has its own
sub-parser that declares only the options the mode reads, so any other
option is a usage error.  Every run is seeded, every output file is TSV
with 17 significant digits, and `main` writes a JSON manifest next to
each command's primary output recording resolved parameters, input
digests, output digests, and each climb's sweeps and stop reason, so
results can be audited and reproduced byte for byte.  `--digest`
additionally prints each output file's sha256 to stdout.

Exit codes: 0 success (including a not-applicable verify), 1 on user
errors (bad flags, unreadable or malformed inputs), 2 on internal
failures (invariant or bound violations, non-convergence of the oracle).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, _native, clustering
from .clustering import ClusterConfig
from .embedding import (
    cafe_embed,
    multilayer_embed,
    save_embedding_tsv,
    load_embedding_tsv,
)
from .graph import _write_rows, load_edge_list
from .pointcloud import (
    concentric_circles,
    load_xyz,
    reduce_cloud,
    torus_cloud,
)
from .spectral import ConvergenceError, alignment_bounds, eigendecompose
from .sphere import SphereConfig, sphere_embed
from .tasks import classify, link_predict, load_labels, save_metrics_tsv

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


def _write_manifest(command, params, input_paths, output_paths, started,
                    extra):
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
        # Whether the compiled loops ran, and which path each entry point
        # the run used took; the Python loops give the same bytes, only
        # slower.
        "compiled": _native.library() is not None,
        "paths": dict(_native.paths),
        # LAPACK's QR bytes, and so some outputs', depend on it.
        "blas_threads": _native.blas_threads(),
    }
    if extra:
        manifest.update(extra)
    # Strict JSON: NaN or infinity raises before the file is opened.
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    path = f"{output_paths[0]}.manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path, manifest["outputs"]


def _load_finite_rows(path):
    """load_embedding_tsv, refusing a file that holds NaN or infinity,
    which would make every bound, fit and score computed from it NaN."""
    labels, rows = load_embedding_tsv(path)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: non-finite value in the row of node "
                         f"{labels[bad[0]]!r}")
    return labels, rows


def _sweep(args):
    """The sweep settings every iteration takes, under the keyword names
    of the configs, the library calls and the manifest params."""
    return {"seed": args.seed, "tol": args.tol, "max_sweeps": args.max_sweeps}


def _sibling(out, tag):
    """`emb.tsv` -> `emb.TAG.tsv`; a suffix-less `out` gets `.tsv`."""
    stem, suffix = os.path.splitext(out)
    return f"{stem}.{tag}{suffix or '.tsv'}"


def _rank(embedding):
    """The manifest record of a QR's rank decision: the columns of Q H
    dropped as dependent."""
    return {"dropped_columns": list(embedding.dropped_columns)}


def _print_run(result):
    print(
        f"C={result.embedding.C} objective={result.climb.objective:.12g} "
        f"sweeps={result.climb.sweeps} converged={result.climb.converged}"
    )


def _cmd_embed_cafe(args):
    graph = load_edge_list(args.graph)
    inputs = {"graph": args.graph}
    pinned = None
    labels = None
    k = args.k
    if args.labels:
        inputs["labels"] = args.labels
        nodes, classes, class_names = load_labels(args.labels, graph)
        if args.full_label:
            if nodes.size != graph.n:
                raise ValueError(
                    f"--full-label needs every node labeled "
                    f"({nodes.size} of {graph.n} found)"
                )
            if k is not None and k != len(class_names):
                raise ValueError(
                    f"--full-label takes K from the labels: --k {k} given, "
                    f"but the labels hold {len(class_names)} classes")
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
    sweep = _sweep(args)
    # A full-label run reads only K, so only K is checked.
    config = (ClusterConfig(n_clusters=k) if labels is not None else
              ClusterConfig(n_clusters=k, theta=args.theta, **sweep))
    result = cafe_embed(graph.modularity_matrix(), config, pinned=pinned,
                        labels=labels)
    save_embedding_tsv(args.out, result.embedding.H_hat, graph.node_labels)
    outputs = [args.out]
    if args.assignment_out:
        save_embedding_tsv(args.assignment_out, result.assignment,
                           graph.node_labels)
        outputs.append(args.assignment_out)
    _print_run(result)
    params = {"mode": "cafe", "k": k, "full_label": args.full_label}
    extra = _rank(result.embedding)
    if labels is None:  # only a clustering run reads or makes these
        params.update(theta=args.theta, **sweep)
        extra.update(objective_trace=result.climb.objective_trace,
                     stop_reason=result.climb.stop_reason)
    return outputs, inputs, params, extra, 0


def _cmd_embed_sphere(args):
    graph = load_edge_list(args.graph)
    if args.k is None:
        raise ValueError("embed sphere requires --k")
    sweep = _sweep(args)
    config = SphereConfig(n_dims=args.k, beta=args.beta, **sweep)
    result = sphere_embed(graph.modularity_matrix(), config)
    save_embedding_tsv(args.out, result.embedding.H_hat, graph.node_labels)
    _print_run(result)
    params = {"mode": "sphere", "k": args.k, "beta": args.beta, **sweep}
    extra = {"objective_trace": result.climb.objective_trace,
             "degenerate_updates": sum(result.climb.counts),
             "stop_reason": result.climb.stop_reason,
             **_rank(result.embedding)}
    return [args.out], {"graph": args.graph}, params, extra, 0


def _cmd_embed_multilayer(args):
    graph = load_edge_list(args.graph)
    sweep = _sweep(args)
    levels = multilayer_embed(graph.modularity_matrix(), theta=args.theta,
                              **sweep)
    outputs = []
    level_info = []
    for layer in levels:
        if layer.level == 0:
            path = args.out
            rows = layer.embedding.H_hat
        else:
            path = _sibling(args.out, f"level{layer.level}")
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
            "sweeps": layer.climb.sweeps,
            "stop_reason": layer.climb.stop_reason,
            **_rank(layer.embedding),
        })
        print(
            f"level={layer.level} clusters={layer.C} "
            f"modularity={layer.modularity:.12g}"
        )
    membership_path = _sibling(args.out, "membership")
    member_rows = np.column_stack([layer.membership for layer in levels])
    save_embedding_tsv(membership_path, member_rows, graph.node_labels)
    outputs.append(membership_path)
    params = {"mode": "multilayer", "theta": args.theta, **sweep}
    return outputs, {"graph": args.graph}, params, {"levels": level_info}, 0


def _cmd_verify(args):
    graph = load_edge_list(args.graph)
    Q = graph.modularity_matrix()
    inputs = {"graph": args.graph}
    if args.k != 2:
        raise ValueError("verify checks two-cluster assignments; --k must be 2")
    params, extra = {"k": 2}, None
    if args.assignment:
        inputs["assignment"] = args.assignment
        labels, H = _load_finite_rows(args.assignment)
        if labels != [str(lab) for lab in graph.node_labels]:
            raise ValueError("assignment rows do not match the graph's nodes")
        if H.shape[1] != 2:
            raise ValueError(f"assignment must have 2 columns, got {H.shape[1]}")
    else:
        sweep = {"theta": args.theta, **_sweep(args)}
        params.update(sweep)
        config = ClusterConfig(n_clusters=2, **sweep)
        result = clustering.run(Q, config)
        H, climb = result.assignment.H, result.climb
        extra = {"sweeps": climb.sweeps, "stop_reason": climb.stop_reason}
    report = alignment_bounds(Q, H)
    rows = [(field.name, float(getattr(report, field.name)))
            for field in dataclasses.fields(report)]
    for name, value in rows:
        print(f"{name}\t{value:.12g}")
    outputs = []
    if args.out:
        names, values = zip(*rows)
        _write_rows(args.out, np.array(values)[:, None], names)
        outputs.append(args.out)
    violated = report.applicable and not report.holds
    if violated:
        print("bound violation", file=sys.stderr)
    return outputs, inputs, params, extra, 2 if violated else 0


def _cmd_eigs(args):
    graph = load_edge_list(args.graph)
    spectrum = eigendecompose(graph.modularity_matrix(), k=args.topk)
    _write_rows(args.out, spectrum.eigenvalues[:, None],
                range(spectrum.eigenvalues.size))
    outputs = [args.out]
    if args.vectors_out:
        save_embedding_tsv(args.vectors_out, spectrum.eigenvectors,
                           graph.node_labels)
        outputs.append(args.vectors_out)
    head = ", ".join(f"{v:.6g}" for v in spectrum.eigenvalues[:5])
    print(f"eigenvalues ({spectrum.eigenvalues.size}): {head} ...")
    return outputs, {"graph": args.graph}, {"topk": args.topk}, None, 0


def _cmd_reduce(args):
    inputs = {}
    if args.points:
        inputs["points"] = args.points
        points = load_xyz(args.points)
        source = args.points
    else:
        points = _BUILTIN_CLOUDS[args.cloud]()
        source = f"builtin:{args.cloud}"
    sweep = _sweep(args)
    result = reduce_cloud(points, args.k, theta=args.theta,
                          method=args.method, beta=args.beta, **sweep)
    node_labels = list(range(points.shape[0]))
    save_embedding_tsv(args.out, result.embedding, node_labels)
    residual_path = _sibling(args.out, "residuals")
    _write_rows(residual_path,
                np.column_stack([result.residuals, result.selected]),
                range(result.residuals.size))
    recon_path = _sibling(args.out, "reconstruction")
    save_embedding_tsv(recon_path, result.reconstruction, node_labels)
    kept = int(result.selected.sum())
    print(
        f"columns={args.k} selected={kept} "
        f"residuals={np.array2string(result.residuals, precision=4)} "
        f"sweeps={result.climb.sweeps} converged={result.climb.converged}"
    )
    # Each method reads only its own weight.
    weight = "theta" if args.method == "cafe" else "beta"
    params = {"source": source, "k": args.k, "method": args.method,
              weight: getattr(args, weight), **sweep}
    return ([args.out, residual_path, recon_path], inputs, params,
            {"stop_reason": result.climb.stop_reason}, 0)


def _cmd_eval(args):
    if args.task == "classify" and not args.labels:
        raise ValueError("eval classify requires --labels")
    emb_labels, X = _load_finite_rows(args.embeddings)
    graph = load_edge_list(args.graph)
    inputs = {"embeddings": args.embeddings, "graph": args.graph}
    if emb_labels != [str(lab) for lab in graph.node_labels]:
        raise ValueError("embedding rows do not match the graph's nodes")
    if args.task == "classify":
        inputs["labels"] = args.labels
        nodes, classes, _ = load_labels(args.labels, graph)
        order = np.argsort(nodes)
        summary = classify(
            X[nodes[order]], classes[order], train_fraction=args.train,
            repetitions=args.reps, seed=args.seed,
        )
    else:
        summary = link_predict(
            graph, X, train_fraction=args.train, repetitions=args.reps,
            seed=args.seed,
        )
    save_metrics_tsv(args.out, summary)
    for name, mean, std in summary.rows():
        print(f"{name}\t{mean:.6f}\t±{std:.6f}")
    params = {"train": args.train, "reps": args.reps, "seed": args.seed}
    return [args.out], inputs, params, None, 0


def build_parser():
    parser = _Parser(
        prog="modembed",
        description="Sparse-graph embeddings by modularity trace maximization.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Parent parsers: options that several commands read, declared once.
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--graph", required=True, help="edge-list file")
    files.add_argument("--out", required=True,
                       help="output TSV path; the manifest is "
                            "OUT.manifest.json")
    digest = argparse.ArgumentParser(add_help=False)
    digest.add_argument("--digest", action="store_true",
                        help="print sha256 of each output file")
    sweeps = argparse.ArgumentParser(add_help=False)
    sweeps.add_argument("--seed", type=int, default=0, help="RNG seed")
    sweeps.add_argument("--tol", type=float, default=1e-9,
                        help="objective-change convergence threshold")
    sweeps.add_argument("--max-sweeps", type=int, default=200,
                        help="cap on full passes over the nodes")
    theta_help = "inverse temperature of the softmax update"

    embed = sub.add_parser("embed", help="compute node embeddings")
    modes = embed.add_subparsers(dest="mode", required=True)
    cafe = modes.add_parser("cafe", parents=[files, digest, sweeps],
                            help="softmax clustering, then QR")
    cafe.add_argument("--k", type=int, default=None, help="clusters")
    cafe.add_argument("--theta", type=float, default=50.0, help=theta_help)
    cafe.add_argument("--labels", default=None,
                      help="node<TAB>class file pinning known nodes")
    cafe.add_argument("--full-label", action="store_true",
                      help="all nodes labeled: skip clustering entirely")
    cafe.add_argument("--assignment-out", default=None,
                      help="also write the soft assignment rows")
    cafe.set_defaults(func=_cmd_embed_cafe)
    sphere = modes.add_parser("sphere", parents=[files, digest, sweeps],
                              help="unit-sphere iteration")
    sphere.add_argument("--k", type=int, default=None, help="dimensions")
    sphere.add_argument("--beta", type=float, default=0.5,
                        help="blend weight in [0, 1]")
    sphere.set_defaults(func=_cmd_embed_sphere)
    multilayer = modes.add_parser("multilayer",
                                  parents=[files, digest, sweeps],
                                  help="multi-level hierarchy")
    multilayer.add_argument("--theta", type=float,
                            default=clustering.HARD_THETA,
                            help=f"{theta_help} (default: the hard limit)")
    multilayer.set_defaults(func=_cmd_embed_multilayer)

    verify = sub.add_parser(
        "verify", parents=[digest, sweeps],
        help="check spectral alignment bounds for a K=2 run",
    )
    verify.add_argument("--graph", required=True, help="edge-list file")
    verify.add_argument("--k", type=int, default=2,
                        help="must be 2 (bounds address two clusters)")
    verify.add_argument("--theta", type=float, default=50.0, help=theta_help)
    verify.add_argument("--assignment", default=None,
                        help="reuse a saved soft assignment instead of "
                             "re-running the clustering")
    verify.add_argument("--out", default=None, help="optional report TSV")
    verify.set_defaults(func=_cmd_verify)

    eigs = sub.add_parser("eigs", parents=[files, digest],
                          help="oracle eigenvalues/eigenvectors")
    eigs.add_argument("--topk", type=int, default=None,
                      help="leading pairs only (default: full spectrum)")
    eigs.add_argument("--vectors-out", default=None,
                      help="also write eigenvector columns per node")
    eigs.set_defaults(func=_cmd_eigs)

    reduce_p = sub.add_parser("reduce", parents=[digest, sweeps],
                              help="embed a point cloud")
    src = reduce_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--points", default=None,
                     help="whitespace x y [z] coordinate file")
    src.add_argument("--cloud", choices=sorted(_BUILTIN_CLOUDS),
                     default=None, help="built-in demo cloud")
    reduce_p.add_argument("--k", type=int, required=True,
                          help="embedding columns")
    reduce_p.add_argument("--theta", type=float, default=0.010,
                          help=theta_help)
    reduce_p.add_argument("--method", choices=("cafe", "sphere"),
                          default="cafe")
    reduce_p.add_argument("--beta", type=float, default=0.5,
                          help="sphere blend weight in [0, 1]")
    reduce_p.add_argument("--out", required=True, help="embedding TSV path")
    reduce_p.set_defaults(func=_cmd_reduce)

    ev = sub.add_parser("eval", parents=[files, digest],
                        help="score embeddings on downstream tasks")
    ev.add_argument("task", choices=("classify", "link"))
    ev.add_argument("--embeddings", required=True, help="embedding TSV")
    ev.add_argument("--labels", default=None,
                    help="node<TAB>class file (classify)")
    ev.add_argument("--train", type=float, default=0.5,
                    help="train fraction per split")
    ev.add_argument("--reps", type=int, default=10,
                    help="repetitions to aggregate")
    ev.add_argument("--seed", type=int, default=0, help="RNG seed")
    ev.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None):
    """Parse `argv`, run the command, then write its manifest next to its
    first output and print the `--digest` lines.  A command returns
    (outputs, inputs, params, extra manifest fields, exit code)."""
    args = build_parser().parse_args(argv)
    started = time.time()
    _native.paths.clear()
    try:
        outputs, inputs, params, extra, code = args.func(args)
        if outputs:
            command = " ".join(filter(None, (
                args.command, getattr(args, "mode", None),
                getattr(args, "task", None))))
            manifest, digests = _write_manifest(command, params, inputs,
                                                outputs, started, extra)
            if args.command == "embed":
                print(f"wrote {len(outputs)} file(s); manifest {manifest}")
            if args.digest:
                for path in sorted(map(str, outputs)):
                    print(f"{digests[path]}  {path}")
        return code
    except ConvergenceError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is an internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
