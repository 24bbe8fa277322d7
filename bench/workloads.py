"""The four workloads: inputs made from the seed, the operations of one
round, and the checks on what the program produced.

A workload's constructor is its set-up: it writes every input file the
program will read.  :meth:`operations` lists one round; every round repeats
the same operations on the same inputs, so each round leaves the same
outputs behind and :meth:`check` reads the last one.  CLI commands run
in-process through ``rsm.cli.main``; library paths call ``rsm.io``,
``rsm.network`` and ``rsm.inference`` through their module attributes, so
the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import rsm.cli
import rsm.inference
import rsm.io
import rsm.network
from rsm.params import PriorHyperparams

from inputs import (Planted, ari, bound_drop, derive_seed, ordered_pairs,
                    read_network, read_vertex_values, sample_planted, write_sample)


@dataclass(frozen=True)
class Op:
    """One timed operation.  ``span`` names the span the benchmark opens
    around a CLI command in a traced round (library calls are spanned by
    the tracer's wrappers instead)."""

    label: str
    run: Callable[[], None]
    span: str | None = None


class CommandFailed(RuntimeError):
    pass


class Workload:
    name = ""
    # Span names a traced round must contain; a missing one means a call
    # site moved and the layer's numbers would silently read zero.
    expected_spans: tuple[str, ...] = ()

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.stdout: dict[str, str] = {}
        # Figures the check computed, kept in result.json beside the verdict.
        self.checked: dict[str, object] = {}

    def cli(self, key: str, argv: list[str]) -> Op:
        """``rsm <argv>`` in-process; its standard output is kept under ``key``."""
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = rsm.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            self.stdout[key] = out.getvalue()
            if code != 0:
                raise CommandFailed(f"rsm {' '.join(argv)} exited {code}: "
                                    f"{err.getvalue().strip()}")
        return Op(f"cli.{argv[0]}", run, span=f"cli.{argv[0].replace('-', '_')}")

    def operations(self) -> list[Op]:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError


def _check_fit_bundle(bundle: Path, truth: np.ndarray, eval_stdout: str,
                      what: str) -> tuple[float, list[str]]:
    """ARI of a fit bundle's labels against the planted ones, with the
    problems found in the bundle and in ``rsm eval``'s printed index."""
    problems = []
    labels = read_vertex_values(bundle / "labels.txt", truth.shape[0])
    score = ari(labels, truth)
    printed = float(eval_stdout.split()[-1])
    if abs(printed - score) > 1e-6:
        problems.append(f"{what}: rsm eval printed {printed}, pair counting gives {score}")
    rows = (bundle / "elbo_trace.csv").read_text(encoding="utf-8").split()[1:]
    drop = bound_drop([float(r.split(",")[1]) for r in rows])
    if drop > 1e-8:
        problems.append(f"{what}: bound decreased by {drop}")
    return score, problems


class Paper(Workload):
    """The paper's simulated setting: ``rsm generate --scenario 1|2|3``, then
    ``fit --k 3``, ``select-k`` over K = 1..6 and ``eval`` per network."""

    name = "paper"
    # Eight draws per scenario: the work per network varies with its seed
    # (restarts converge in different numbers of sweeps), and 24 networks
    # average that out to a few percent of the round.
    NETWORKS_PER_SCENARIO = 8
    # Least mean ARI per scenario over its eight networks.  The acceptance
    # suite asks 0.95, 0.90 and 0.85 of means over twenty networks; over
    # eight, workload seeds 0-40 gave minima of 0.996, 0.871 and 0.801
    # (README), so scenarios 2 and 3 keep a margin of 0.07 and 0.05 below
    # those minima.
    MIN_MEAN_ARI = {1: 0.95, 2: 0.80, 3: 0.75}
    expected_spans = (
        "cli.generate", "cli.fit", "cli.select_k", "cli.eval",
        "generate.sample_network", "io.write_network_file", "io.load_network",
        "network.validate_network", "selection.select_k", "medoids.kmedoid_init",
        "medoids.distance_matrix", "inference.fit_single", "inference.elbo",
        "inference.m_step_alpha", "inference.m_step_gamma", "io.write_result_bundle")

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.networks = [(scenario, derive_seed(seed, scenario, j),
                          work / f"scenario{scenario}-{j}")
                         for scenario in (1, 2, 3)
                         for j in range(self.NETWORKS_PER_SCENARIO)]

    def operations(self) -> list[Op]:
        ops = []
        for scenario, seed, d in self.networks:
            data = d / "data"
            fit_args = ["--network", str(data / "network.txt"),
                        "--partition", str(data / "partition.txt"), "--seed", str(seed)]
            ops += [
                self.cli(f"{d}:generate", ["generate", "--scenario", str(scenario),
                                           "--seed", str(seed), "--out", str(data)]),
                self.cli(f"{d}:fit", ["fit", *fit_args, "--k", "3",
                                      "--out", str(d / "fit")]),
                self.cli(f"{d}:select-k", ["select-k", *fit_args, "--k-min", "1",
                                           "--k-max", "6", "--out", str(d / "curve.csv")]),
                self.cli(f"{d}:eval", ["eval", str(data / "true_labels.txt"),
                                       str(d / "fit" / "labels.txt")]),
            ]
        return ops

    def check(self) -> list[str]:
        problems = []
        scores = {1: [], 2: [], 3: []}
        picked_three = 0
        for scenario, _, d in self.networks:
            n, _, c, _ = read_network(d / "data" / "network.txt")
            if (n, c) != (100, 3):
                problems.append(f"{d.name}: generated N={n} C={c}, expected 100 and 3")
            truth = read_vertex_values(d / "data" / "true_labels.txt", n)
            score, found = _check_fit_bundle(d / "fit", truth,
                                             self.stdout[f"{d}:eval"], d.name)
            scores[scenario].append(score)
            problems += found
            rows = [r.split(",") for r in
                    (d / "curve.csv").read_text(encoding="utf-8").split()[1:]]
            if [int(r[0]) for r in rows] != list(range(1, 7)):
                problems.append(f"{d.name}: select-k curve lacks some K in 1..6")
                continue
            best = max(rows, key=lambda r: (float(r[1]), -int(r[0])))
            k_star = int(self.stdout[f"{d}:select-k"].split("k_star:")[1])
            if k_star != int(best[0]):
                problems.append(f"{d.name}: select-k printed K={k_star}, "
                                f"its curve peaks at K={best[0]}")
            picked_three += scenario == 1 and k_star == 3
        means = {scenario: float(np.mean(s)) for scenario, s in scores.items()}
        self.checked.update({f"scenario{k}_mean_ari": v for k, v in means.items()},
                            scenario1_k_star_3=picked_three)
        for scenario, least in self.MIN_MEAN_ARI.items():
            if means[scenario] < least:
                problems.append(f"scenario {scenario} mean ARI {means[scenario]:.3f} "
                                f"< {least}")
        if 2 * picked_three <= self.NETWORKS_PER_SCENARIO:
            problems.append(f"select-k chose K=3 on only {picked_three} of "
                            f"{self.NETWORKS_PER_SCENARIO} scenario-1 networks")
        return problems


# Edge-type distributions (within a cluster, between clusters).  With
# STRONG types two k-medoid restarts recover the planted clusters on every
# seed tried; with WEAK ones, 3 of 6 seeds ended at ARI 0.57 or below, which
# would fail init's check on some seeds.  sweep is given its start, and its
# WEAK types keep every seed tried from converging within SWEEPS iterations.
STRONG = ((0.8, 0.1, 0.1), (0.1, 0.1, 0.8))
WEAK = ((0.7, 0.2, 0.1), (0.1, 0.2, 0.7))


class Init(Workload):
    """``rsm fit`` on a 600-vertex network, where the k-medoid initializer's
    dense discordance matrix carries the time; then ``rsm eval``."""

    name = "init"
    SPEC = Planted(600, 3, 3, 0.06, 0.02, *STRONG)
    RESTARTS = 2
    expected_spans = (
        "cli.fit", "cli.eval", "io.load_network", "network.validate_network",
        "medoids.kmedoid_init", "medoids.distance_matrix", "inference.fit_single",
        "inference.elbo", "inference.m_step_alpha", "inference.m_step_gamma",
        "io.write_result_bundle")

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.sample = sample_planted(self.SPEC, derive_seed(seed, 0))
        self.paths = write_sample(work / "data", self.sample)

    def operations(self) -> list[Op]:
        bundle = self.work / "fit"
        return [
            self.cli("fit", ["fit", "--network", str(self.paths["network"]),
                             "--partition", str(self.paths["partition"]),
                             "--k", "3", "--restarts", str(self.RESTARTS),
                             "--seed", str(derive_seed(self.seed, 1)),
                             "--out", str(bundle)]),
            self.cli("eval", ["eval", str(self.paths["true_labels"]),
                              str(bundle / "labels.txt")]),
        ]

    def check(self) -> list[str]:
        score, problems = _check_fit_bundle(self.work / "fit", self.sample.labels,
                                            self.stdout["eval"], "fit")
        self.checked["ari"] = score
        if score < 0.9:
            problems.append(f"fit ARI {score:.3f} < 0.9")
        return problems


class Sweep(Workload):
    """``load_network``, ``validate_network`` and ``fit_single`` on a sparse
    3000-vertex network, from a perturbed planted labelling: the dense
    responsibility sweep and ``xi`` update carry the time.  ``fit`` is
    bypassed, because its initializer would take minutes at this size."""

    name = "sweep"
    SPEC = Planted(3000, 3, 3, 0.006, 0.002, *WEAK)
    PERTURBED = 0.3
    # The iterations needed to converge vary from about 24 to over 200
    # between networks; a fixed sweep count keeps the work the same in every
    # run, so run_s measures the cost per sweep.
    SWEEPS = 20
    # The inputs are those of workload seed 5, whatever --seed is.  On them
    # the synchronous sweep lowers the bound at iterations 15 and 17-19, a
    # fault of the program, so the fit operation fails in every round; on
    # 15 of seeds 0-15 it does not, and inputs that followed --seed would
    # make the failed count a draw of the seed.
    INPUT_SEED = 5
    expected_spans = (
        "io.load_network", "network.validate_network", "inference.fit_single",
        "inference.elbo", "inference.m_step_alpha", "inference.m_step_gamma")

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        spec = self.SPEC
        self.sample = sample_planted(spec, derive_seed(self.INPUT_SEED, 0))
        self.paths = write_sample(work / "data", self.sample)
        rng = np.random.default_rng(derive_seed(self.INPUT_SEED, 1))
        start = self.sample.labels.copy()
        moved = rng.random(spec.n_vertices) < self.PERTURBED
        start[moved] = rng.integers(spec.n_clusters, size=int(moved.sum()))
        # A hard start: from soft responsibilities the synchronous sweep
        # washes the planted signal out to uniform on these networks.
        self.tau0 = np.eye(spec.n_clusters)[start]
        self.priors = PriorHyperparams.constant(spec.n_subgraphs, spec.n_clusters,
                                                spec.n_types, 0.5)
        self.net = None
        self.result = None

    def operations(self) -> list[Op]:
        def load():
            # Drop the previous round's network and fit before loading, as a
            # fresh process would not hold them.
            self.net = self.result = None
            self.net = rsm.io.load_network(self.paths["network"], self.paths["partition"])

        def validate():
            report = rsm.network.validate_network(self.net)
            if not report.ok:
                raise CommandFailed("; ".join(report.violations))

        def fit():
            self.result = rsm.inference.fit_single(self.net, self.tau0, self.priors,
                                                   max_iterations=self.SWEEPS)
            drop = bound_drop(self.result[1])
            self.checked["bound_drop"] = drop
            if drop > 1e-8:
                raise CommandFailed(f"fit_single lowered the bound by {drop:.6g}")

        return [Op("io.load_network", load), Op("network.validate_network", validate),
                Op("inference.fit_single", fit)]

    def check(self) -> list[str]:
        problems = []
        s = self.sample
        if np.count_nonzero(self.net.edge_types) != s.n_edges or not np.array_equal(
                self.net.edge_types[s.src, s.dst], s.types):
            problems.append("load_network does not hold the written edges")
        state, _, _ = self.result
        p = self.priors
        sizes = self.SPEC.subgraph_sizes()
        blocks = np.zeros_like(p.a0)
        np.add.at(blocks, (s.subgraph_of[s.src], s.subgraph_of[s.dst]), 1.0)
        for what, got, want in (
                ("xi added mass", (state.xi - p.xi0).sum(), s.n_edges),
                ("chi row gains", (state.chi - p.chi0).sum(axis=1), sizes),
                ("a + b - (a0 + b0)", state.a + state.b - p.a0 - p.b0,
                 ordered_pairs(sizes)),
                ("a - a0", state.a - p.a0, blocks)):
            if not np.allclose(got, want, rtol=1e-9, atol=1e-6):
                problems.append(f"{what} is {got}, expected {want}")
        # The bound's monotonicity is checked in the fit operation itself,
        # which counts as failed when the bound drops.
        score = ari(np.argmax(state.tau, axis=1), s.labels)
        self.checked["ari"] = score
        if score < 0.9:
            problems.append(f"fit ARI {score:.3f} < 0.9")
        return problems


class Files(Workload):
    """``rsm generate --params`` for 3000 vertices, then ``load_network``,
    ``validate_network`` and ``write_network_file`` on what it wrote."""

    name = "files"
    SIZES = (1000, 1000, 1000)
    GAMMA = Sweep.SPEC.gamma()
    ALPHA = ((0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.2, 0.2, 0.6))
    expected_spans = ("cli.generate", "generate.sample_network", "io.write_network_file",
                      "io.load_network", "network.validate_network")

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        pi = [[STRONG[k != l] for l in range(3)] for k in range(3)]
        self.params = work / "params.json"
        work.mkdir(parents=True, exist_ok=True)
        self.params.write_text(json.dumps({
            "alpha": self.ALPHA, "gamma": self.GAMMA.tolist(), "pi": pi,
            "subgraph_sizes": self.SIZES}), encoding="utf-8")
        self.generated = work / "generated"
        self.rewritten = work / "rewritten.txt"
        self.net = None

    def operations(self) -> list[Op]:
        def generate():
            # A user's process holds no earlier network while generating.
            self.net = None
            command.run()

        def load():
            self.net = rsm.io.load_network(self.generated / "network.txt",
                                           self.generated / "partition.txt")

        def validate():
            report = rsm.network.validate_network(self.net)
            if not report.ok:
                raise CommandFailed("; ".join(report.violations))

        def write():
            rsm.io.write_network_file(self.rewritten, self.net)

        command = self.cli("generate", ["generate", "--params", str(self.params),
                                        "--seed", str(derive_seed(self.seed, 0)),
                                        "--out", str(self.generated)])
        return [Op(command.label, generate, command.span),
                Op("io.load_network", load), Op("network.validate_network", validate),
                Op("io.write_network_file", write)]

    def check(self) -> list[str]:
        problems = []
        network = self.generated / "network.txt"
        n, _, _, edges = read_network(network)
        pairs = ordered_pairs(self.SIZES)
        mean = float((self.GAMMA * pairs).sum())
        sd = float(np.sqrt((self.GAMMA * (1 - self.GAMMA) * pairs).sum()))
        if abs(edges.shape[0] - mean) > 6 * sd:
            problems.append(f"{edges.shape[0]} edges, expected {mean:.0f} +- {6 * sd:.0f}")
        sub = read_vertex_values(self.generated / "partition.txt", n)
        if not np.array_equal(sub, np.repeat(np.arange(3), self.SIZES)):
            problems.append("partition.txt does not follow subgraph_sizes")
        labels = read_vertex_values(self.generated / "true_labels.txt", n)
        if labels.max() >= 3:
            problems.append("true_labels.txt has a cluster outside 1..3")
        if self.rewritten.read_bytes() != network.read_bytes():
            problems.append("read-then-write does not reproduce network.txt byte for byte")
        return problems


WORKLOADS = {w.name: w for w in (Paper, Init, Sweep, Files)}
