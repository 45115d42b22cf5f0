"""Command-line entry point: graph, analyze, train, eval, heatmap.

Every invocation writes ``run.json`` under ``--out`` recording the command,
seed, spec hash, library versions, wall time, and final status (on failure,
the error's class and message).  Exit codes: 0 success, 1 validation/usage
error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from ._kernels import active_backend
from .architecture import analyze, compare_topologies, load_spec, spec_hash
from .errors import CheckpointError, ValidationError
from .introspect import export_heatmap, weight_heatmap
from .model import compile_network, load_checkpoint, save_checkpoint
from .topology import build_graph, export_dot, export_json, format_topology, parse_topology
from .train import TrainConfig, evaluate, load_cifar10, train_model, write_history_csv

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """argparse type: a non-negative integer, as numpy and checkpoints require."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _topology_list(text: str) -> list[str]:
    """argparse type: a comma-separated list of at least one topology name."""
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"expected at least one topology, got {text!r}")
    return names


def _versions() -> dict:
    try:
        from importlib.metadata import version

        pkg = version("sparseagg")
    except Exception:
        pkg = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sparseagg": pkg,
        "kernel_backend": active_backend(),
    }


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparseagg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--out", default=".", help="directory for all outputs (default: .)")
        p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("graph", help="build a skip topology and export it")
    common(p)
    p.add_argument("--topology", required=True,
                   help="plain | dense | sparse:<base> | fractal:<columns>")
    p.add_argument("--layers", required=True, type=int)
    p.add_argument("--format", choices=("dot", "json"), default="dot")

    p = sub.add_parser("analyze", help="parameter/FLOP cost report for a network spec")
    common(p)
    p.add_argument("--spec", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--compare", type=_topology_list, default=None,
                   help="comma-separated topologies to re-plan the spec with")

    p = sub.add_parser("train", help="train a compiled network on CIFAR-10 binaries")
    common(p)
    p.add_argument("--spec", required=True)
    p.add_argument("--data", required=True, help="directory with data_batch_*.bin / test_batch.bin")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--subset", type=int, default=None,
                   help="stratified train subset size (multiple of 10)")
    p.add_argument("--test-subset", type=int, default=None)
    p.add_argument("--no-augment", action="store_true")

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--subset", type=int, default=None, help="stratified test subset size")
    p.add_argument("--batch-size", type=int, default=200)

    p = sub.add_parser("heatmap", help="export feature-reuse heat maps from a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--format", choices=("csv", "pgm", "both"), default="both")

    return parser


def _safe_name(name: str) -> str:
    return name.replace(":", "")


def _cmd_graph(args, record) -> None:
    kind = parse_topology(args.topology)
    graph = build_graph(kind, args.layers)
    if args.format == "dot":
        content, suffix = export_dot(graph), "dot"
    else:
        content, suffix = export_json(graph), "json"
    path = os.path.join(args.out, f"graph_{_safe_name(format_topology(kind))}_L{args.layers}.{suffix}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)
    record["edges"] = graph.num_edges
    print(f"wrote {path} ({graph.num_layers} layers, {graph.num_edges} edges)")


def _cmd_analyze(args, record) -> None:
    spec = load_spec(args.spec)
    record["spec_hash"] = spec_hash(spec)
    if args.compare is not None:
        reports = compare_topologies(spec, [parse_topology(name) for name in args.compare])
    else:
        reports = {format_topology(spec.topology): analyze(spec)}
    for name, report in reports.items():
        path = os.path.join(args.out, f"analysis_{_safe_name(name)}.{args.format}")
        content = report.to_csv() if args.format == "csv" else report.to_json()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        print(f"{name}: params={report.total_params} flops={report.total_flops} -> {path}")


def _cmd_train(args, record) -> None:
    spec = load_spec(args.spec)
    record["spec_hash"] = spec_hash(spec)
    data = load_cifar10(args.data, train_subset=args.subset, test_subset=args.test_subset)
    net = compile_network(spec, seed=args.seed)
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, base_lr=args.lr,
                      weight_decay=args.weight_decay, seed=args.seed,
                      augment=not args.no_augment)
    history = train_model(net, data, cfg, log=print)
    write_history_csv(history, os.path.join(args.out, "history.csv"))
    extra = {
        "mean": data.mean.tolist(),
        "std": data.std.tolist(),
        "final_train_loss": history[-1]["train_loss"],
        "final_test_err": history[-1]["test_err"],
    }
    save_checkpoint(net, os.path.join(args.out, "checkpoint"), epoch=cfg.epochs, extra=extra)
    record["final_test_err"] = history[-1]["test_err"]
    print(f"finished {cfg.epochs} epochs; final test error {history[-1]['test_err']:.4f}")


def _cmd_eval(args, record) -> None:
    net, manifest = load_checkpoint(args.checkpoint)
    record["spec_hash"] = manifest["spec_hash"]
    data = load_cifar10(args.data, test_subset=args.subset)
    mean, std = _normalization(manifest.get("extra", {}), data)
    loss, err = evaluate(net, data.test_images, data.test_labels, mean, std, args.batch_size)
    metrics = {"test_loss": loss, "test_err": err, "images": int(data.test_labels.shape[0])}
    with open(os.path.join(args.out, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    record.update(metrics)
    print(f"test error {err:.4f}  loss {loss:.4f}  over {metrics['images']} images")


def _normalization(extra, data) -> tuple[np.ndarray, np.ndarray]:
    """The checkpoint's per-channel mean and std, else those fitted on ``data``."""
    if not isinstance(extra, dict):
        raise CheckpointError(f"checkpoint manifest field 'extra' must be a JSON object, "
                              f"got {extra!r}")
    if "mean" not in extra or "std" not in extra:
        return data.mean, data.std
    limit = float(np.finfo(np.float32).max)
    for key in ("mean", "std"):
        value = extra[key]
        # bool is an int subclass; NaN and inf fail the range test
        if not (isinstance(value, list) and len(value) == 3
                and all(type(v) in (int, float) and abs(v) <= limit for v in value)):
            raise CheckpointError(f"checkpoint extra.{key} must be three finite numbers, "
                                  f"got {value!r}")
    mean, std = (np.asarray(extra[key], dtype=np.float32) for key in ("mean", "std"))
    if not (std > 0).all():
        raise CheckpointError(f"checkpoint extra.std must be above 0, got {extra['std']!r}")
    return mean, std


def _cmd_heatmap(args, record) -> None:
    net, manifest = load_checkpoint(args.checkpoint)
    record["spec_hash"] = manifest["spec_hash"]
    report = weight_heatmap(net, epoch=manifest.get("epoch"))
    formats = ("csv", "pgm") if args.format == "both" else (args.format,)
    paths = export_heatmap(report, args.out, formats)
    print(f"wrote {len(paths)} files under {args.out}")


_HANDLERS = {
    "graph": _cmd_graph,
    "analyze": _cmd_analyze,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "heatmap": _cmd_heatmap,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    record = {
        "command": args.command,
        "argv": argv,
        "seed": args.seed,
        "spec_hash": None,
        "versions": _versions(),
        "status": "ok",
    }
    start = time.perf_counter()
    code = 0
    try:
        _HANDLERS[args.command](args, record)
    except Exception as exc:
        record["status"] = "error"
        record["error"] = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, (ValidationError, FileNotFoundError)):
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        else:  # runtime failures: divergence, non-finite, bugs
            print(f"runtime failure: {record['error']}", file=sys.stderr)
            code = 2
    record["wall_time_s"] = time.perf_counter() - start
    with open(os.path.join(args.out, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
