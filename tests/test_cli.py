"""Command-line behavior: file outputs, exit codes, and messages.

Most tests call ``main`` in process; one subprocess test covers the module
entry point end to end.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from builders import dense_network

import rsm
import rsm.io
from rsm import exact_log_evidence, PriorHyperparams, TypedNetwork
from rsm.cli import main
from rsm.io import load_network, write_labels_file, write_network_file, write_partition_file


def child_env():
    """The environment of a child process that imports this process's rsm."""
    source = str(Path(rsm.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_generate(tmp_path, seed=7):
    out = tmp_path / "data"
    assert main(["generate", "--scenario", "1", "--seed", str(seed),
                 "--out", str(out)]) == 0
    return out


def write_benchmark_data(tmp_path):
    """A benchmark network written through the generate command."""
    out = tmp_path / "input"
    code = main(["generate", "--scenario", "2", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    return out / "network.txt", out / "partition.txt"


class TestGenerate:
    def test_writes_three_files_and_reports_seed(self, tmp_path, capsys):
        out = run_generate(tmp_path)
        captured = capsys.readouterr()
        assert "seed: 7" in captured.out
        for name in ("network.txt", "partition.txt", "true_labels.txt"):
            assert (out / name).exists()
        net = load_network(out / "network.txt", out / "partition.txt")
        assert net.n_vertices == 100

    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        main(["generate", "--scenario", "1", "--seed", "3", "--out", str(first)])
        main(["generate", "--scenario", "1", "--seed", "3", "--out", str(second)])
        for name in ("network.txt", "partition.txt", "true_labels.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_missing_seed_is_drawn_and_printed(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["generate", "--scenario", "1", "--out", str(out)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("seed: ")
        int(line.removeprefix("seed: "))

    def test_invalid_scenario_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", "--scenario", "9", "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2

    def test_negative_seed_is_refused_by_name_before_any_write(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", "--scenario", "1", "--seed", "-1", "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("error: argument --seed: invalid seed value: '-1'\n")
        assert not (tmp_path / "x").exists()

    def test_params_file_source(self, tmp_path, capsys):
        params = {
            "alpha": [[0.5, 0.5]],
            "gamma": [[0.6]],
            "pi": [[[0.9, 0.1], [0.4, 0.6]], [[0.2, 0.8], [0.7, 0.3]]],
            "subgraph_sizes": [12],
        }
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(params))
        out = tmp_path / "data"
        assert main(["generate", "--params", str(params_path), "--seed", "2",
                     "--out", str(out)]) == 0
        net = load_network(out / "network.txt", out / "partition.txt")
        assert net.n_vertices == 12
        assert net.n_types == 2

    def test_params_for_a_trillion_vertices_exit_one_before_the_labels(
            self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the labels were allocated past the memory rule")

        monkeypatch.setattr(np, "repeat", unreachable)
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", 2 ** 30)
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"alpha": [[1.0]], "gamma": [[0.5]],
                                           "pi": [[[1.0]]], "subgraph_sizes": [10 ** 12]}))
        out = tmp_path / "data"
        code = main(["generate", "--params", str(params_path), "--seed", "0",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the subgraph labels of 1000000000000 vertices "
            "takes 7450.6 GiB (8000000000000 bytes), more than the 1.0 GiB of "
            "physical memory\n")
        assert not out.exists()

    def test_scenario_and_params_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", "--scenario", "1", "--params", "p.json",
                  "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2


# sha256 of network.txt, partition.txt and true_labels.txt written by
# `rsm generate ... --seed 0`.  Any change to the sampler's draws or to the
# presets changes them; such a change updates them here and says why.
SEEDED_OUTPUTS = {
    "--scenario 1": (
        "d4a80d99056ca5a4092b60d71c7327f4fc6fc798b521e0ca51fca5f8e750c719",
        "fabf129d1553a36034d14388cf80f79fa7e61a0ab19d135a476c2e7649a458a9",
        "33eba25ed99c643d5744be3dc34f389d88b1634a2d7c4dd39e46da69dea56f66"),
    "--scenario 2": (
        "9083c8ae790dbdf8feb4657a77628e050a60cc3e51314cbcc8641e5d0815d876",
        "fabf129d1553a36034d14388cf80f79fa7e61a0ab19d135a476c2e7649a458a9",
        "33eba25ed99c643d5744be3dc34f389d88b1634a2d7c4dd39e46da69dea56f66"),
    "--scenario 3": (
        "85c52ca30e4636eade4a5ccb003af0d7f671f92fb8c2100159bf3c438f0f38c5",
        "2f528193b5a286d5ff56508351ee2ef95a408675ea1c6848ef73a3e0450553fc",
        "52368a98b1bccece2d9404d5627e0bceb734d200b59a9a8c8a1a0e0a9e8f0a7d"),
    "--params": (
        "da3d374fa52658010ebdd2f6e08e2ea40a918534043b4659f5ae701931af4107",
        "b1fbbed1d2cc8fceca954cd9ed2b14f0490489df10adb994b08b282d45ff7dd6",
        "1b3b11c64fef83b51762d7cf2f00af8baae4f5a99718906aa9d3daeebb3faa13"),
}
SMALL_PARAMS = {
    "alpha": [[0.7, 0.3], [0.2, 0.8]],
    "gamma": [[0.5, 0.1], [0.2, 0.4]],
    "pi": [[[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]], [[0.3, 0.3, 0.4], [0.8, 0.1, 0.1]]],
    "subgraph_sizes": [7, 5],
}


@pytest.mark.parametrize("source", sorted(SEEDED_OUTPUTS))
def test_seeded_generate_outputs_are_pinned(tmp_path, source):
    if source == "--params":
        path = tmp_path / "params.json"
        path.write_text(json.dumps(SMALL_PARAMS))
        argv = ["--params", str(path)]
    else:
        argv = source.split()
    out = tmp_path / "data"
    assert main(["generate", *argv, "--seed", "0", "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("network.txt", "partition.txt", "true_labels.txt"))
    assert digests == SEEDED_OUTPUTS[source]


# sha256 of network.txt, partition.txt and true_labels.txt that `rsm generate
# --params --seed 0` writes for MULTI_BLOCK_PARAMS: 3000 vertices and a
# network file of 331 504 bytes, which spans several of the chunks of rows
# that edge-list files are written in, where every file of SEEDED_OUTPUTS
# fits in one.  Computed before the files were written a chunk at a time;
# must not move.
MULTI_BLOCK_PARAMS = {
    "alpha": [[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]],
    "gamma": [[0.0055, 0.0022, 0.0022], [0.0022, 0.0055, 0.0022], [0.0022, 0.0022, 0.0055]],
    "pi": [[[0.7, 0.2, 0.1], [0.1, 0.3, 0.6], [0.3, 0.4, 0.3]],
           [[0.2, 0.2, 0.6], [0.6, 0.3, 0.1], [0.1, 0.8, 0.1]],
           [[0.4, 0.4, 0.2], [0.2, 0.1, 0.7], [0.8, 0.1, 0.1]]],
    "subgraph_sizes": [1000, 1000, 1000],
}
MULTI_BLOCK_OUTPUTS = (
    "bb2f07d41a3e1d3f826f0cd9a185fa1c2843dec6d26afb2eb63248ec120fa8e6",
    "1c219c498ccc3b948414318ad4d0a6b546693e77b2c2ca9bd9198bb9f41d60ef",
    "d105c0f0bc13a9e1fc0ac8bd926422c33756ced2705ce98f1ce37917fd9f79ba")


def test_a_multi_block_generate_output_is_pinned_and_round_trips(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(MULTI_BLOCK_PARAMS))
    out = tmp_path / "data"
    assert main(["generate", "--params", str(path), "--seed", "0", "--out", str(out)]) == 0
    written = [(out / name).read_bytes()
               for name in ("network.txt", "partition.txt", "true_labels.txt")]
    assert tuple(hashlib.sha256(b).hexdigest() for b in written) == MULTI_BLOCK_OUTPUTS
    net = load_network(out / "network.txt", out / "partition.txt")
    assert len(written[0]) == 331_504
    assert len(net.src) > 3 * rsm.io._WRITE_ROWS
    write_network_file(tmp_path / "network.txt", net)
    write_partition_file(tmp_path / "partition.txt", net)
    assert (tmp_path / "network.txt").read_bytes() == written[0]
    assert (tmp_path / "partition.txt").read_bytes() == written[1]


# sha256 of what `rsm fit --k 3 --restarts 5 --seed 7` and `rsm select-k
# --k-min 1 --k-max 4 --seed 7` write for the `rsm generate --scenario 3
# --seed 0` network.  The restarts' bounds tie to within their last digits,
# so these pin the fitting loop's arithmetic bit for bit, not only its
# answers; a change to that arithmetic updates them here and says why.
SEEDED_FITS = {
    "labels.txt": "85d0cbac46aa2e2bd6c19ac239c43f42562abcfdc01d80eb7738eded67f41851",
    "parameters.txt": "7b0f354fef2d8edc794bff7ee3516d28b3e4d44d644a52d9bdb86ef2c00904ce",
    "elbo_trace.csv": "dd7408942b507faae32b2e5c4778a9e087792a25ebbe6c2ba864335680b79d9b",
    "metadata.json": "edf983fda3f29b0518d12429a265d484ce5fdbdd94651d671c2301cd47ed5b5e",
    "k_curve.csv": "5427706cd759a6669b73218f87b82f2e6c7d36bb18ca0793209fc679702f83ec",
}
# The same, and the network.txt digest, for the network that `rsm generate
# --scenario 3 --seed 0` wrote while the sampler drew one uniform per
# ordered pair; the digests above moved only because the sampler now draws
# another network from the same seed.
DENSE_STREAM_NETWORK = "8e04fecea989e33f1ba59537fcce0fec89c0255b339417e7ad12d63d6242e6bf"
DENSE_STREAM_FITS = {
    "labels.txt": "9e44ea05684034fe5cbec0f82d8d891d77544c8636f35da551975f06fce860a4",
    "parameters.txt": "e1efbccc7c7ad3f277c601c3eeafe79add187a51b3f5c96e8d7bc8bc5eb8ebce",
    "elbo_trace.csv": "65066c519de531d08fb1678e080fcb0dcb576d540c3bdaa96a13ff7b57d65f72",
    "metadata.json": "3e4a4db43c3ca6ddc93f995262d25fc925f1d4957f3d8b433de2983f9a61c5b3",
    "k_curve.csv": "470e042d45037650a7fc85606730cf7ce8463dd6494b0bf683036ab56c1659df",
}


def fit_digests(data, out):
    """sha256 of the files that the pinned fit and select-k commands write
    for the network and partition files in ``data``."""
    inputs = ["--network", str(data / "network.txt"),
              "--partition", str(data / "partition.txt"), "--seed", "7"]
    assert main(["fit", *inputs, "--k", "3", "--restarts", "5", "--out", str(out)]) == 0
    assert main(["select-k", *inputs, "--k-min", "1", "--k-max", "4",
                 "--out", str(out / "k_curve.csv")]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in SEEDED_FITS}


def test_seeded_fit_and_select_k_outputs_are_pinned(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--scenario", "3", "--seed", "0", "--out", str(data)]) == 0
    assert fit_digests(data, tmp_path / "fit") == SEEDED_FITS


def test_fits_of_the_dense_stream_network_are_unchanged(tmp_path):
    # oracles.dense_sample draws the one-uniform-per-pair stream
    params, sub = rsm.benchmark_params(3)
    src, dst, types, _ = oracles.dense_sample(params, sub, 0)
    net = TypedNetwork.from_edges(len(sub), src, dst, types, sub, n_types=params.n_types,
                                  n_subgraphs=params.n_subgraphs)
    data = tmp_path / "data"
    data.mkdir()
    write_network_file(data / "network.txt", net)
    write_partition_file(data / "partition.txt", net)
    written = hashlib.sha256((data / "network.txt").read_bytes()).hexdigest()
    assert written == DENSE_STREAM_NETWORK
    assert fit_digests(data, tmp_path / "fit") == DENSE_STREAM_FITS


# sha256 of two fits that the digests above do not reach: a single-restart
# fit_single on a sparse 3000-vertex network, and a select-k whose K reach
# 8 and 9, where the responsibility sums switch from one running sum to
# eight interleaved ones.  Both were computed before the update loop's
# neighbour sums and normalization were rewritten, and must not move.
SINGLE_RESTART_FIT = "8bb113023be9d22deb5a994ff134eb5528f01fcf8a611969286c8a6a98bd3788"
WIDE_K_CURVE = "7d2e4dd99135e316f34913f497e18225063a824fd14fb4510523d432ef4985ff"


def test_a_single_restart_fit_on_a_sparse_network_is_pinned():
    params, sub = rsm.scenario_params(
        alpha=[[0.3, 0.3, 0.4], [0.5, 0.2, 0.3]], type_probs_within=[0.7, 0.2, 0.1],
        type_probs_between=[0.1, 0.3, 0.6], edge_prob_within=0.004,
        edge_prob_between=0.001, subgraph_sizes=[1500, 1500])
    sample = rsm.sample_network(params, sub, 11)
    rng = np.random.default_rng(12)
    start = sample.true_labels.copy()
    moved = rng.random(len(start)) < 0.3
    start[moved] = rng.integers(3, size=int(moved.sum()))
    priors = PriorHyperparams.constant(2, 3, 3, 0.5)
    state, trace, converged = rsm.fit_single(sample.network, np.eye(3)[start], priors,
                                             max_iterations=20)
    assert len(trace) == 20 and not converged
    digest = hashlib.sha256()
    for values in (trace, state.tau, state.chi, state.xi):
        digest.update(values.tobytes())
    assert digest.hexdigest() == SINGLE_RESTART_FIT


def test_a_select_k_over_eight_and_nine_clusters_is_pinned(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--scenario", "2", "--seed", "0", "--out", str(data)]) == 0
    out = tmp_path / "k_curve.csv"
    assert main(["select-k", "--network", str(data / "network.txt"),
                 "--partition", str(data / "partition.txt"), "--seed", "3",
                 "--k-min", "8", "--k-max", "9", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WIDE_K_CURVE


class TestFitCommand:
    def test_fit_writes_bundle_and_reports(self, tmp_path, capsys):
        network, partition = write_benchmark_data(tmp_path)
        out = tmp_path / "run"
        code = main(["fit", "--network", str(network), "--partition",
                     str(partition), "--k", "3", "--restarts", "2",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "final elbo: " in captured
        assert "iterations: " in captured
        assert "converged: " in captured
        for name in ("labels.txt", "parameters.txt", "elbo_trace.csv",
                     "metadata.json"):
            assert (out / name).exists()

    def test_fit_is_deterministic_across_runs(self, tmp_path):
        network, partition = write_benchmark_data(tmp_path)
        runs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main(["fit", "--network", str(network), "--partition",
                  str(partition), "--k", "2", "--restarts", "2",
                  "--seed", "5", "--out", str(out)])
            runs.append(out)
        for name in ("labels.txt", "parameters.txt", "elbo_trace.csv",
                     "metadata.json"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()

    def test_nonpositive_k_is_a_usage_error(self, tmp_path):
        network, partition = write_benchmark_data(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--network", str(network), "--partition",
                  str(partition), "--k", "0", "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2

    def test_a_failed_allocation_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        # a stand-in for the allocation a huge K would ask for; a real one
        # could be granted by an overcommitting system and then exhaust it
        def allocate(net, config):
            raise MemoryError("Unable to allocate 1.96 TiB for an array with "
                              "shape (300000, 300000, 3) and data type float64")

        network, partition = write_benchmark_data(tmp_path)
        monkeypatch.setattr(rsm.cli, "fit", allocate)
        capsys.readouterr()
        code = main(["fit", "--network", str(network), "--partition", str(partition),
                     "--k", "300000", "--seed", "0", "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: Unable to allocate 1.96 TiB for an array with shape "
            "(300000, 300000, 3) and data type float64\n")
        assert not (tmp_path / "run").exists()

    def test_missing_network_file_exits_one(self, tmp_path, capsys):
        code = main(["fit", "--network", str(tmp_path / "nope.txt"),
                     "--partition", str(tmp_path / "nope2.txt"),
                     "--k", "2", "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_empty_subgraph_warning_goes_to_stderr(self, tmp_path, capsys):
        network = tmp_path / "network.txt"
        partition = tmp_path / "partition.txt"
        network.write_text("rsm v1 N=3 S=2 C=1\n1 2 1\n2 3 1\n3 1 1\n")
        partition.write_text("1 2\n2 2\n3 2\n")
        code = main(["fit", "--network", str(network), "--partition",
                     str(partition), "--k", "2", "--seed", "0",
                     "--out", str(tmp_path / "run")])
        assert code == 0
        assert "has no vertices" in capsys.readouterr().err

    def test_network_too_large_for_memory_exits_one(self, tmp_path, capsys, monkeypatch):
        # the update loop of 5 restarts at K=3 on these 10 vertices and 5
        # edges takes 18 284 bytes (tests/test_inference.py::TestLoopMemory),
        # more than their discordance; with one byte less of memory the fit
        # is refused before anything is built
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", 18283)
        network = tmp_path / "network.txt"
        partition = tmp_path / "partition.txt"
        network.write_text("rsm v1 N=10 S=1 C=2\n1 2 1\n3 2 2\n4 5 1\n5 6 2\n6 4 2\n")
        partition.write_text("".join(f"{i} 1\n" for i in range(1, 11)))
        code = main(["fit", "--network", str(network), "--partition",
                     str(partition), "--k", "3", "--seed", "0",
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the update loop of R=5 restarts on N=10 vertices at K=3 takes "
            "0.0 GiB (18284 bytes), more than the 0.0 GiB of physical memory\n")
        assert not (tmp_path / "run").exists()

    def test_network_without_vertices_is_refused_before_any_write(self, tmp_path, capsys):
        network = tmp_path / "network.txt"
        partition = tmp_path / "partition.txt"
        network.write_text("rsm v1 N=0 S=1 C=1\n")
        partition.write_text("")
        code = main(["fit", "--network", str(network), "--partition",
                     str(partition), "--k", "2", "--seed", "0",
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err.endswith(
            f"error: {network}: the network has no vertices to cluster\n")
        assert not (tmp_path / "run").exists()

    def test_short_partition_for_a_trillion_vertices_exits_one(self, tmp_path, capsys):
        # the partition reader refuses the file before allocating N entries
        network = tmp_path / "network.txt"
        partition = tmp_path / "partition.txt"
        network.write_text("rsm v1 N=1000000000000 S=1 C=1\n")
        partition.write_text("1 1\n")
        code = main(["fit", "--network", str(network), "--partition",
                     str(partition), "--k", "2", "--seed", "0",
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {partition}:2: no subgraph given for vertex 2\n")
        assert not (tmp_path / "run").exists()


class TestSelectKCommand:
    def test_scan_writes_curve_and_prints_winner(self, tmp_path, capsys):
        network, partition = write_benchmark_data(tmp_path)
        out = tmp_path / "curve.csv"
        code = main(["select-k", "--network", str(network), "--partition",
                     str(partition), "--k-min", "1", "--k-max", "3",
                     "--restarts", "2", "--seed", "0", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,best_elbo,n_restarts_converged"
        assert len(lines) == 4
        assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3]
        assert "k_star: " in capsys.readouterr().out

    def test_an_excluded_k_is_reported_once(self, tmp_path):
        # in a child process, so that no capture hides logging's last-resort
        # handler, which would print rsm.selection's record
        network, partition = write_benchmark_data(tmp_path)
        child = textwrap.dedent("""
            import sys
            import numpy as np
            import rsm.inference
            from rsm.cli import main
            from rsm.params import RestartSummary

            real = rsm.inference.fit_single

            def fail_at_two(net, tau0, priors, **options):
                if tau0.shape[-1] != 2:
                    return real(net, tau0, priors, **options)
                return ([None] * len(tau0),
                        [RestartSummary(np.empty(0), "failed: injected")] * len(tau0))

            rsm.inference.fit_single = fail_at_two
            sys.exit(main(sys.argv[1:]))
            """)
        completed = subprocess.run(
            [sys.executable, "-c", child, "select-k", "--network", str(network),
             "--partition", str(partition), "--k-min", "1", "--k-max", "3",
             "--restarts", "2", "--seed", "0", "--out", str(tmp_path / "curve.csv")],
            capture_output=True, text=True, env=child_env())
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr.splitlines() == [
            "warning: K=2 excluded: every restart failed: "
            "restart 0: injected; restart 1: injected"]
        assert "k_star: " in completed.stdout

    def test_inverted_range_is_a_usage_error(self, tmp_path):
        network, partition = write_benchmark_data(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["select-k", "--network", str(network), "--partition",
                  str(partition), "--k-min", "4", "--k-max", "2",
                  "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2


class TestEvalCommand:
    def test_identical_labelings_score_one(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        write_labels_file(a, np.array([0, 1, 2, 0]))
        write_labels_file(b, np.array([2, 0, 1, 2]))
        assert main(["eval", str(a), str(b)]) == 0
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_crossed_pairs_score_minus_half(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1 1\n2 1\n3 2\n4 2\n")
        b.write_text("1 1\n2 2\n3 1\n4 2\n")
        assert main(["eval", str(a), str(b)]) == 0
        assert capsys.readouterr().out.strip() == "-0.500000"

    def test_vertex_sets_must_agree(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1 1\n2 2\n")
        b.write_text("1 1\n3 2\n")
        assert main(["eval", str(a), str(b)]) == 1
        err = capsys.readouterr().err
        assert "different vertex sets" in err
        assert err == (f"error: label files cover different vertex sets: "
                       f"vertex 2 is listed only in {a}\n")
        assert main(["eval", str(b), str(a)]) == 1
        assert capsys.readouterr().err.endswith(f"vertex 2 is listed only in {a}\n")


class TestDebugOracle:
    def test_prints_the_exact_evidence(self, tmp_path, capsys):
        network = tmp_path / "network.txt"
        partition = tmp_path / "partition.txt"
        network.write_text("rsm v1 N=2 S=1 C=1\n1 2 1\n")
        partition.write_text("1 1\n2 1\n")
        assert main(["debug", "oracle", "--network", str(network),
                     "--partition", str(partition), "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("log evidence: ")
        value = float(out.removeprefix("log evidence: "))
        net = load_network(network, partition)
        expected = exact_log_evidence(net, 1, PriorHyperparams.jeffreys(1, 1, 1))
        assert value == expected

    def test_one_cluster_on_a_100_vertex_network(self, tmp_path, capsys):
        data = run_generate(tmp_path)
        capsys.readouterr()
        assert main(["debug", "oracle", "--network", str(data / "network.txt"),
                     "--partition", str(data / "partition.txt"), "--k", "1"]) == 0
        value = float(capsys.readouterr().out.removeprefix("log evidence: "))
        net = load_network(data / "network.txt", data / "partition.txt")
        assert net.n_vertices == 100
        assert value == exact_log_evidence(net, 1, PriorHyperparams.jeffreys(
            net.n_subgraphs, 1, net.n_types))

    def test_budget_overflow_exits_one(self, tmp_path, capsys):
        network, partition = write_benchmark_data(tmp_path)
        code = main(["debug", "oracle", "--network", str(network),
                     "--partition", str(partition), "--k", "3"])
        assert code == 1
        assert "budget" in capsys.readouterr().err


def count_options(parser, path=()):
    """(subcommand path, option, its subparser) for every option of
    ``parser`` and its subparsers whose type is the count type."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from count_options(sub, (*path, name))
        elif action.type is rsm.cli.count:
            yield path, action.option_strings[-1], parser


def test_every_count_option_refuses_what_is_not_a_count(tmp_path, capsys):
    """The parser declares every count's range: 0 and 2.5 are usage errors,
    exit 2, before anything is read or written."""
    found = list(count_options(rsm.cli.build_parser()))
    assert {option for _, option, _ in found} == {
        "--k", "--k-min", "--k-max", "--restarts", "--max-iter", "--max-enum"}
    for path, option, sub in found:
        required = [item for action in sub._actions
                    if action.required and action.option_strings[-1] != option
                    for item in (action.option_strings[-1],
                                 "1" if action.type is rsm.cli.count
                                 else str(tmp_path / action.dest))]
        for value in ("0", "2.5"):
            with pytest.raises(SystemExit) as excinfo:
                main([*path, *required, option, value])
            assert excinfo.value.code == 2
            assert capsys.readouterr().err.endswith(
                f"error: argument {option}: invalid count value: '{value}'\n")
            assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["fit", "--k", "1"], ["select-k"]])
@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_an_epsilon_fit_refuses_is_a_usage_error(tmp_path, capsys, command, value):
    """A tolerance that FitConfig refuses exits 2 from the parser, before a
    seed is drawn or a file is read or written."""
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--network", str(tmp_path / "network.txt"),
              "--partition", str(tmp_path / "partition.txt"),
              "--out", str(tmp_path / "out"), "--epsilon", value])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument --epsilon: invalid epsilon value: '{value}'\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["fit", "--k", "1"], ["select-k"]])
@pytest.mark.parametrize("value", ["-1", "1.5"])
def test_a_seed_fit_refuses_is_a_usage_error(tmp_path, capsys, command, value):
    """A seed that FitConfig refuses exits 2 from the parser, before it is
    printed or a file is read or written."""
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--network", str(tmp_path / "network.txt"),
              "--partition", str(tmp_path / "partition.txt"),
              "--out", str(tmp_path / "out"), "--seed", value])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument --seed: invalid seed value: '{value}'\n")
    assert list(tmp_path.iterdir()) == []


@st.composite
def small_networks(draw):
    """A network of 0-8 vertices, 1-3 subgraphs (any of them may be empty)
    and 1-3 edge types, with or without edges."""
    n = draw(st.integers(0, 8))
    n_subgraphs = draw(st.integers(1, 3))
    n_types = draw(st.integers(1, 3))
    types = st.just(0) if draw(st.booleans()) else st.integers(0, n_types)
    x = draw(arrays(np.int64, (n, n), elements=types))
    sub = draw(arrays(np.int64, n, elements=st.integers(0, n_subgraphs - 1)))
    return dense_network(x, sub, n_types, n_subgraphs)


def run_main(argv):
    """``main(argv)`` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestRoundTrip:
    """Every command on small networks written to files: it exits 0, or 1
    with an ``error:`` line, and ``select-k`` reports at K the bound that
    ``fit --k K`` prints with the same seed and options."""

    @settings(max_examples=30, deadline=None)
    @given(small_networks(), st.data())
    def test_commands_exit_cleanly_and_select_k_repeats_fit(self, net, data):
        n = net.n_vertices
        k = data.draw(st.integers(1, n + 2), label="k")
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        truth = data.draw(arrays(np.int64, n, elements=st.integers(0, k - 1)), label="truth")
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            write_network_file(d / "network.txt", net)
            write_partition_file(d / "partition.txt", net)
            write_labels_file(d / "truth.txt", truth)
            inputs = ["--network", str(d / "network.txt"),
                      "--partition", str(d / "partition.txt")]
            options = [*inputs, "--restarts", "2", "--max-iter", "30", "--seed", str(seed)]
            fitted = run_main(["fit", *options, "--k", str(k), "--out", str(d / "fit")])
            selected = run_main(["select-k", *options, "--k-min", "1",
                                 "--k-max", str(k), "--out", str(d / "curve.csv")])
            oracle = run_main(["debug", "oracle", *inputs, "--k", str(k)])
            runs = [fitted, selected, oracle]
            if n:
                runs.append(run_main(["eval", str(d / "truth.txt"),
                                      str(d / "fit" / "labels.txt")]))
                assert runs[-1][0] == 0
            for code, _, err in runs:
                assert code in (0, 1) and "Traceback" not in err
                if code:
                    assert err.splitlines()[-1].startswith("error: ")
            # fit refuses only a network without vertices, the oracle only
            # a count of assignments past its budget
            assert (fitted[0], selected[0], oracle[0]) == (int(n == 0), 0, int(k ** n > 4096))
            if n:
                rows = dict(line.split(",")[:2] for line in
                            (d / "curve.csv").read_text(encoding="utf-8").split()[1:])
                assert f"final elbo: {rows[str(k)]}\n" in fitted[1]


class TestModuleEntryPoint:
    def test_subprocess_matches_in_process_output(self, tmp_path):
        in_proc = tmp_path / "in_proc"
        main(["generate", "--scenario", "1", "--seed", "4",
              "--out", str(in_proc)])
        sub_proc = tmp_path / "sub_proc"
        completed = subprocess.run(
            [sys.executable, "-m", "rsm.cli", "generate", "--scenario", "1",
             "--seed", "4", "--out", str(sub_proc)],
            capture_output=True, text=True, env=child_env())
        assert completed.returncode == 0
        assert "seed: 4" in completed.stdout
        for name in ("network.txt", "partition.txt", "true_labels.txt"):
            assert (in_proc / name).read_bytes() == (sub_proc / name).read_bytes()
