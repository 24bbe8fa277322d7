"""Command-line interface.

Subcommands: ``generate`` samples a network to files, ``fit`` estimates
clusters for a fixed K, ``select-k`` scans a K range and keeps the best
bound, ``eval`` scores two label files against each other, and ``debug
oracle`` prints the exact log evidence of a small network.

Every run with an explicit ``--seed`` writes byte-identical outputs; without
one, a seed is drawn from OS entropy and printed so the run can be repeated.
Exit codes: 0 on success, 2 for usage errors, 1 for bad inputs or files.
"""

from __future__ import annotations

import argparse
import secrets
import sys
from pathlib import Path

from .generate import benchmark_scenario, sample_network
from .inference import FitConfig, fit
from .io import (
    FormatError,
    load_network,
    read_labels_file,
    read_params_file,
    write_labels_file,
    write_network_file,
    write_partition_file,
    write_result_bundle,
)
from .metrics import adjusted_rand_index
from .network import TypedNetwork, validate_network
from .oracle import OracleLimits, exact_log_evidence
from .params import PriorHyperparams
from .selection import select_k

DEFAULT_K_MIN = 1
DEFAULT_K_MAX = 8


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = secrets.randbits(32)
    print(f"seed: {seed}")
    return seed


def _add_fit_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--network", required=True, help="network file")
    sub.add_argument("--partition", required=True, help="subgraph partition file")
    sub.add_argument("--restarts", type=int, default=5,
                     help="number of initializations (default 5)")
    sub.add_argument("--epsilon", type=float, default=1e-6,
                     help="convergence tolerance on hyperparameter change (default 1e-6)")
    sub.add_argument("--max-iter", type=int, default=200,
                     help="iteration cap per restart (default 200)")
    sub.add_argument("--seed", type=int, default=None,
                     help="RNG seed (default: drawn from OS entropy and printed)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsm",
        description="Cluster directed typed-edge networks with a known vertex partition.")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="sample a network to files")
    source = gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", type=int,
                        help="benchmark scenario number (1, 2, or 3)")
    source.add_argument("--params", help="parameter JSON file")
    gen.add_argument("--seed", type=int, default=None,
                     help="RNG seed (default: drawn from OS entropy and printed)")
    gen.add_argument("--out", required=True, help="output directory")

    fit_cmd = commands.add_parser("fit", help="fit clusters for a fixed K")
    _add_fit_options(fit_cmd)
    fit_cmd.add_argument("--k", type=int, required=True, help="number of clusters")
    fit_cmd.add_argument("--out", required=True, help="output directory")

    sel = commands.add_parser("select-k", help="scan a K range and pick the best bound")
    _add_fit_options(sel)
    sel.add_argument("--k-min", type=int, default=DEFAULT_K_MIN,
                     help=f"smallest candidate K (default {DEFAULT_K_MIN})")
    sel.add_argument("--k-max", type=int, default=DEFAULT_K_MAX,
                     help=f"largest candidate K (default {DEFAULT_K_MAX})")
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
    oracle.add_argument("--k", type=int, required=True, help="number of clusters")
    oracle.add_argument("--max-enum", type=int, default=OracleLimits().max_enumeration,
                        help="assignment budget (default 4096)")
    return parser


def _load_validated(args) -> TypedNetwork:
    net = load_network(args.network, args.partition)
    for warning in validate_network(net).warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return net


def cmd_generate(args, parser: argparse.ArgumentParser) -> int:
    if args.scenario is not None and args.scenario not in (1, 2, 3):
        parser.error(f"invalid scenario: {args.scenario} (choose 1, 2, or 3)")
    seed = _resolve_seed(args.seed)
    if args.scenario is not None:
        sample = benchmark_scenario(args.scenario, seed)
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
    if args.k < 1:
        parser.error(f"--k must be >= 1, got {args.k}")
    seed = _resolve_seed(args.seed)
    net = _load_validated(args)
    result = fit(net, _fit_config(args, args.k, seed))
    write_result_bundle(args.out, result, seed=seed, n_clusters=args.k,
                        n_restarts=args.restarts, epsilon_converge=args.epsilon,
                        max_iterations=args.max_iter)
    print(f"final elbo: {result.final_elbo!r}")
    print(f"iterations: {result.n_iterations}")
    print(f"converged: {'yes' if result.converged else 'no'}")
    return 0


def cmd_select_k(args, parser: argparse.ArgumentParser) -> int:
    if args.k_min < 1:
        parser.error(f"--k-min must be >= 1, got {args.k_min}")
    if args.k_min > args.k_max:
        parser.error(f"--k-min {args.k_min} exceeds --k-max {args.k_max}")
    seed = _resolve_seed(args.seed)
    net = _load_validated(args)
    selection = select_k(net, range(args.k_min, args.k_max + 1),
                         _fit_config(args, 1, seed))
    for k, message in sorted(selection.failures.items()):
        print(f"warning: K={k} excluded, every restart failed: {message}",
              file=sys.stderr)
    lines = ["k,best_elbo,n_restarts_converged"]
    for k, best in selection.curve():
        n_conv = sum(r.converged for r in selection.per_k[k].restarts)
        lines.append(f"{k},{best!r},{n_conv}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    print(f"k_star: {selection.k_star}")
    return 0


def cmd_eval(args, parser: argparse.ArgumentParser) -> int:
    labels_a = read_labels_file(args.labels_a)
    labels_b = read_labels_file(args.labels_b)
    if set(labels_a) != set(labels_b):
        raise ValueError("label files cover different vertex sets")
    order = sorted(labels_a)
    ari = adjusted_rand_index([labels_a[v] for v in order],
                              [labels_b[v] for v in order])
    print(f"{ari:.6f}")
    return 0


def cmd_debug_oracle(args, parser: argparse.ArgumentParser) -> int:
    if args.k < 1:
        parser.error(f"--k must be >= 1, got {args.k}")
    net = _load_validated(args)
    priors = PriorHyperparams.jeffreys(net.n_subgraphs, args.k, net.n_types)
    value = exact_log_evidence(net, args.k, priors,
                               OracleLimits(max_enumeration=args.max_enum))
    print(f"log evidence: {value!r}")
    return 0


_HANDLERS = {
    "generate": cmd_generate,
    "fit": cmd_fit,
    "select-k": cmd_select_k,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "debug":
        handler = cmd_debug_oracle
    else:
        handler = _HANDLERS[args.command]
    try:
        return handler(args, parser)
    except (FormatError, ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
