"""Choosing the number of clusters by the converged bound."""

from dataclasses import replace

import numpy as np
import pytest

from builders import dense_network

from rsm import (
    FitConfig,
    PriorHyperparams,
    benchmark_scenario,
    demo_params,
    fit,
    sample_network,
    select_k,
)


def demo_sample(seed=0):
    return sample_network(*demo_params(), seed)


def empty_vertex_net(n_clusters_unused=None):
    return dense_network(np.zeros((0, 0), dtype=int), np.zeros(0, dtype=int),
                         n_types=1, n_subgraphs=1)


class TestSelectK:
    def test_picks_the_planted_cluster_count(self):
        sample = demo_sample(seed=0)
        result = select_k(sample.network, range(1, 5),
                          FitConfig(n_clusters=1, seed=0))
        assert result.k_star == 3
        assert sorted(result.per_k) == [1, 2, 3, 4]
        assert result.failures == {}

    def test_candidate_order_and_duplicates_are_irrelevant(self):
        sample = demo_sample(seed=1)
        config = FitConfig(n_clusters=1, n_restarts=2, seed=3)
        forward = select_k(sample.network, [1, 2, 3], config)
        shuffled = select_k(sample.network, [3, 1, 2, 2, 1], config)
        assert forward.k_star == shuffled.k_star
        assert forward.curve() == shuffled.curve()

    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_each_candidate_is_the_fit_at_that_k(self, scenario):
        # candidate K is fitted as fit fits replace(config, n_clusters=K),
        # from the same seeds; on these networks the restarts of one K reach
        # different bounds, so another seed rule shows in the results
        net = benchmark_scenario(scenario, 0).network
        config = FitConfig(n_clusters=1, n_restarts=3, seed=7)
        result = select_k(net, range(1, 5), config)
        for k, chosen in result.per_k.items():
            direct = fit(net, replace(config, n_clusters=k))
            assert chosen.restart_index == direct.restart_index
            for mine, theirs in zip(chosen.restarts, direct.restarts, strict=True):
                assert mine.stop_reason == theirs.stop_reason
                assert mine.elbo_trace.tobytes() == theirs.elbo_trace.tobytes()
            for name in ("tau", "chi", "a", "b", "xi"):
                assert (getattr(chosen.state, name).tobytes()
                        == getattr(direct.state, name).tobytes()), (k, name)

    def test_exact_tie_goes_to_the_smallest_k(self):
        # a vertex-free network gives bound 0.0 for every K
        result = select_k(empty_vertex_net(), range(1, 5),
                          FitConfig(n_clusters=1, n_restarts=1, seed=0))
        assert result.k_star == 1
        assert all(value == 0.0 for _, value in result.curve())

    def test_no_edge_network_prefers_one_cluster(self):
        net = dense_network(np.zeros((12, 12), dtype=int),
                            np.zeros(12, dtype=int), n_types=2, n_subgraphs=1)
        result = select_k(net, range(1, 5), FitConfig(n_clusters=1, seed=0))
        assert result.k_star == 1

    def test_accessors_agree(self):
        sample = demo_sample(seed=3)
        result = select_k(sample.network, [1, 2],
                          FitConfig(n_clusters=1, n_restarts=1, seed=0))
        curve = dict(result.curve())
        for k in (1, 2):
            assert curve[k] == result.per_k[k].final_elbo

    def test_rejects_empty_candidate_set(self):
        with pytest.raises(ValueError, match="at least one"):
            select_k(empty_vertex_net(), [], FitConfig(n_clusters=1))

    def test_rejects_nonpositive_candidates(self):
        with pytest.raises(ValueError, match=">= 1"):
            select_k(empty_vertex_net(), [0, 2], FitConfig(n_clusters=1))

    def test_rejects_explicit_priors(self):
        config = FitConfig(n_clusters=2,
                           priors=PriorHyperparams.jeffreys(1, 2, 1))
        with pytest.raises(ValueError, match="leave config.priors unset"):
            select_k(empty_vertex_net(), [1, 2], config)
