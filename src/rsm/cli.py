"""Command-line interface.

Subcommands: ``generate`` samples a network to files, ``fit`` estimates
clusters for a fixed K, ``select-k`` scans a K range and keeps the best
bound, ``eval`` scores two label files against each other, and ``debug
oracle`` prints the exact log evidence of a small network.

Every run with an explicit ``--seed`` writes byte-identical outputs; without
one, a seed is drawn from OS entropy and printed so the run can be repeated.
Exit codes: 0 on success, 2 for usage errors (among them any count option
that is not an integer >= 1, a ``--seed`` that is not an integer >= 0 and
an ``--epsilon`` that is not > 0), and 1 for bad inputs, files or memory.
"""

from __future__ import annotations

import argparse
import secrets
import sys
from pathlib import Path

from .generate import benchmark_params, sample_network
from .inference import FitConfig, _check_epsilon, fit
from .io import (
    FormatError,
    load_network,
    read_labels_file,
    read_params_file,
    write_k_curve,
    write_labels_file,
    write_network_file,
    write_partition_file,
    write_result_bundle,
)
from .metrics import adjusted_rand_index
from .network import TypedNetwork, _count, validate_network
from .oracle import exact_log_evidence
from .params import PriorHyperparams
from .selection import select_k


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = secrets.randbits(32)
    print(f"seed: {seed}")
    return seed


def count(text: str) -> int:
    """The argparse type of every count option: an integer >= 1."""
    return _count(int(text), "count")


def seed(text: str) -> int:
    """The argparse type of every ``--seed``: an integer >= 0."""
    return _count(int(text), "seed", 0)


def epsilon(text: str) -> float:
    """The argparse type of ``--epsilon``: a tolerance that ``fit`` takes, > 0."""
    value = float(text)
    _check_epsilon(value)
    return value


def _add_fit_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--network", required=True, help="network file")
    sub.add_argument("--partition", required=True, help="subgraph partition file")
    sub.add_argument("--restarts", type=count, default=FitConfig.n_restarts,
                     help="number of initializations (default %(default)s)")
    sub.add_argument("--epsilon", type=epsilon, default=FitConfig.epsilon_converge,
                     help="convergence tolerance on hyperparameter change "
                          "(default %(default)s)")
    sub.add_argument("--max-iter", type=count, default=FitConfig.max_iterations,
                     help="iteration cap per restart (default %(default)s)")
    sub.add_argument("--seed", type=seed, default=None,
                     help="RNG seed (default: drawn from OS entropy and printed)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsm",
        description="Cluster directed typed-edge networks with a known vertex partition.")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="sample a network to files")
    source = gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", type=int, choices=(1, 2, 3), help="benchmark scenario")
    source.add_argument("--params", help="parameter JSON file")
    gen.add_argument("--seed", type=seed, default=None,
                     help="RNG seed (default: drawn from OS entropy and printed)")
    gen.add_argument("--out", required=True, help="output directory")

    fit_cmd = commands.add_parser("fit", help="fit clusters for a fixed K")
    _add_fit_options(fit_cmd)
    fit_cmd.add_argument("--k", type=count, required=True, help="number of clusters")
    fit_cmd.add_argument("--out", required=True, help="output directory")

    sel = commands.add_parser("select-k", help="scan a K range and pick the best bound")
    _add_fit_options(sel)
    sel.add_argument("--k-min", type=count, default=1,
                     help="smallest candidate K (default %(default)s)")
    sel.add_argument("--k-max", type=count, default=8,
                     help="largest candidate K (default %(default)s)")
    sel.add_argument("--out", required=True, help="output CSV path")

    ev = commands.add_parser("eval", help="adjusted Rand index of two label files")
    ev.add_argument("labels_a", help="first label file")
    ev.add_argument("labels_b", help="second label file")

    debug = commands.add_parser("debug", help="diagnostics")
    debug_sub = debug.add_subparsers(dest="debug_command", required=True)
    oracle = debug_sub.add_parser("oracle",
                                  help="exact log evidence by full enumeration")
    oracle.add_argument("--network", required=True, help="network file")
    oracle.add_argument("--partition", required=True, help="subgraph partition file")
    oracle.add_argument("--k", type=count, required=True, help="number of clusters")
    oracle.add_argument("--max-enum", type=count, default=4096,
                        help="assignment budget (default %(default)s)")
    return parser


def _load_validated(args) -> TypedNetwork:
    net = load_network(args.network, args.partition)
    for warning in validate_network(net).warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return net


def cmd_generate(args, parser: argparse.ArgumentParser) -> int:
    seed = _resolve_seed(args.seed)
    if args.scenario is not None:
        params, subgraph_of = benchmark_params(args.scenario)
    else:
        params, subgraph_of = read_params_file(args.params)
    sample = sample_network(params, subgraph_of, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_network_file(out / "network.txt", sample.network)
    write_partition_file(out / "partition.txt", sample.network)
    write_labels_file(out / "true_labels.txt", sample.true_labels)
    print(f"wrote network.txt, partition.txt, true_labels.txt to {out}")
    return 0


def _fit_config(args, n_clusters: int, seed: int) -> FitConfig:
    return FitConfig(n_clusters=n_clusters, n_restarts=args.restarts,
                     max_iterations=args.max_iter, epsilon_converge=args.epsilon,
                     seed=seed)


def cmd_fit(args, parser: argparse.ArgumentParser) -> int:
    seed = _resolve_seed(args.seed)
    net = _load_validated(args)
    if net.n_vertices == 0:
        raise ValueError(f"{args.network}: the network has no vertices to cluster")
    config = _fit_config(args, args.k, seed)
    result = fit(net, config)
    write_result_bundle(args.out, result, config)
    print(f"final elbo: {result.final_elbo!r}")
    print(f"iterations: {result.n_iterations}")
    print(f"converged: {'yes' if result.converged else 'no'}")
    return 0


def cmd_select_k(args, parser: argparse.ArgumentParser) -> int:
    if args.k_min > args.k_max:
        parser.error(f"--k-min {args.k_min} exceeds --k-max {args.k_max}")
    seed = _resolve_seed(args.seed)
    net = _load_validated(args)
    selection = select_k(net, range(args.k_min, args.k_max + 1),
                         _fit_config(args, 1, seed))
    for k, message in sorted(selection.failures.items()):
        print(f"warning: K={k} excluded: {message}", file=sys.stderr)
    write_k_curve(args.out, selection)
    print(f"k_star: {selection.k_star}")
    return 0


def cmd_eval(args, parser: argparse.ArgumentParser) -> int:
    labels_a = read_labels_file(args.labels_a)
    labels_b = read_labels_file(args.labels_b)
    only = set(labels_a) ^ set(labels_b)
    if only:
        vertex = min(only)
        path = args.labels_a if vertex in labels_a else args.labels_b
        raise ValueError(f"label files cover different vertex sets: vertex "
                         f"{vertex + 1} is listed only in {path}")
    order = sorted(labels_a)
    ari = adjusted_rand_index([labels_a[v] for v in order],
                              [labels_b[v] for v in order])
    print(f"{ari:.6f}")
    return 0


def cmd_debug_oracle(args, parser: argparse.ArgumentParser) -> int:
    net = _load_validated(args)
    priors = PriorHyperparams.jeffreys(net.n_subgraphs, args.k, net.n_types)
    value = exact_log_evidence(net, args.k, priors, max_enumeration=args.max_enum)
    print(f"log evidence: {value!r}")
    return 0


_HANDLERS = {
    "generate": cmd_generate,
    "fit": cmd_fit,
    "select-k": cmd_select_k,
    "eval": cmd_eval,
    "debug": cmd_debug_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args, parser)
    except (FormatError, ValueError, FloatingPointError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
