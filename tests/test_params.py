"""Parameter containers, prior construction, and shared validation helpers."""

import re

import numpy as np
import pytest

from rsm import (
    FitResult,
    PriorHyperparams,
    RestartSummary,
    RsmParams,
    VariationalState,
)
from rsm.params import ROW_SUM_TOL, check_row_stochastic


class TestCheckRowStochastic:
    def test_accepts_valid_rows(self):
        check_row_stochastic(np.array([[0.25, 0.75], [1.0, 0.0]]), "x")

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            check_row_stochastic(np.array([[1.2, -0.2]]), "x")

    def test_rejects_bad_sums_and_reports_worst(self):
        with pytest.raises(ValueError, match="sum to 1"):
            check_row_stochastic(np.array([[0.5, 0.4]]), "x")

    def test_tolerance_boundary(self):
        row = np.array([[0.5, 0.5 + 0.5 * ROW_SUM_TOL]])
        check_row_stochastic(row, "x")
        with pytest.raises(ValueError):
            check_row_stochastic(np.array([[0.5, 0.5 + 1e-8]]), "x")

    def test_empty_array_passes(self):
        check_row_stochastic(np.zeros((0, 3)), "x")


def valid_params():
    return RsmParams(
        alpha=[[0.3, 0.7], [0.5, 0.5]],
        gamma=[[0.2, 0.1], [0.05, 0.4]],
        pi=[[[0.8, 0.2], [0.5, 0.5]], [[0.1, 0.9], [0.6, 0.4]]],
    )


class TestRsmParams:
    def test_dimension_properties(self):
        params = valid_params()
        assert params.n_subgraphs == 2
        assert params.n_clusters == 2
        assert params.n_types == 2

    def test_rejects_gamma_shape_mismatch(self):
        with pytest.raises(ValueError, match="gamma"):
            RsmParams(alpha=[[1.0]], gamma=[[0.5, 0.5]], pi=[[[1.0]]])

    def test_rejects_pi_shape_mismatch(self):
        with pytest.raises(ValueError, match="pi"):
            RsmParams(alpha=[[0.5, 0.5]], gamma=[[0.5]], pi=[[[1.0]]])

    def test_rejects_gamma_outside_unit_interval(self):
        with pytest.raises(ValueError, match="gamma"):
            RsmParams(alpha=[[1.0]], gamma=[[1.5]], pi=[[[1.0]]])

    @pytest.mark.parametrize("entry", [-0.1, 1.5, np.nan])
    def test_gamma_refusal_names_the_first_entry(self, entry):
        gamma = [[0.5, 0.2], [entry, 2.0]]
        with pytest.raises(ValueError, match=re.escape(
                f"gamma entries must lie in [0, 1], got gamma[1, 0] = {entry}")):
            RsmParams(alpha=[[1.0], [1.0]], gamma=gamma, pi=[[[1.0]]])

    def test_rejects_non_stochastic_rows(self):
        pi = np.ones((2, 2, 1))
        with pytest.raises(ValueError, match="alpha"):
            RsmParams(alpha=[[0.8, 0.1]], gamma=[[0.5]], pi=pi)

    def test_arrays_read_only(self):
        params = valid_params()
        with pytest.raises(ValueError):
            params.alpha[0, 0] = 0.9


class TestPriorHyperparams:
    def test_constant_fills_every_table(self):
        priors = PriorHyperparams.constant(2, 3, 4, 1.5)
        assert priors.chi0.shape == (2, 3)
        assert priors.a0.shape == (2, 2)
        assert priors.b0.shape == (2, 2)
        assert priors.xi0.shape == (3, 3, 4)
        for arr in (priors.chi0, priors.a0, priors.b0, priors.xi0):
            assert np.all(arr == 1.5)

    def test_jeffreys_is_one_half(self):
        priors = PriorHyperparams.jeffreys(1, 2, 2)
        assert np.all(priors.chi0 == 0.5)
        assert np.all(priors.xi0 == 0.5)

    def test_dimension_properties(self):
        priors = PriorHyperparams.constant(2, 3, 4, 0.5)
        assert (priors.n_subgraphs, priors.n_clusters, priors.n_types) == (2, 3, 4)

    def test_rejects_nonpositive_value(self):
        with pytest.raises(ValueError, match="> 0"):
            PriorHyperparams.constant(1, 1, 1, 0.0)

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError, match="strictly positive"):
            PriorHyperparams(chi0=[[0.5, 0.0]], a0=[[1.0]], b0=[[1.0]],
                             xi0=np.full((2, 2, 1), 0.5))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="a0 and b0"):
            PriorHyperparams(chi0=[[0.5, 0.5]], a0=[[1.0, 1.0]], b0=[[1.0]],
                             xi0=np.full((2, 2, 1), 0.5))


class TestVariationalState:
    def make_state(self, tau):
        return VariationalState(tau=tau, chi=[[1.0, 2.0]], a=[[3.0]], b=[[4.0]],
                                xi=np.full((2, 2, 1), 0.5))

    def test_valid_state_round_trips(self):
        state = self.make_state([[0.4, 0.6], [1.0, 0.0]])
        assert state.n_vertices == 2
        assert state.n_clusters == 2

    def test_tau_rows_must_be_stochastic(self):
        with pytest.raises(ValueError, match="tau"):
            self.make_state([[0.4, 0.7]])

    def test_hyperparameters_must_be_positive(self):
        with pytest.raises(ValueError, match="chi"):
            VariationalState(tau=[[1.0]], chi=[[0.0]], a=[[1.0]], b=[[1.0]],
                             xi=np.full((1, 1, 1), 0.5))

    def test_shape_cross_checks(self):
        with pytest.raises(ValueError, match="chi"):
            VariationalState(tau=[[0.5, 0.5]], chi=[[1.0]], a=[[1.0]], b=[[1.0]],
                             xi=np.full((2, 2, 1), 0.5))


class TestRestartSummary:
    @pytest.mark.parametrize("reason, converged", [
        ("converged", True),
        ("max_iterations", False),
        ("failed: non-finite bound value nan", False),
    ])
    def test_converged_reads_the_stop_reason(self, reason, converged):
        assert RestartSummary([-1.0], reason).converged is converged

    @pytest.mark.parametrize("reason", [True, "failed", "stopped", None])
    def test_rejects_an_unknown_stop_reason(self, reason):
        with pytest.raises(ValueError, match="stop_reason must be 'converged', "
                           "'max_iterations' or 'failed: <message>', got "):
            RestartSummary([-1.0], reason)


class TestFitResult:
    def make_result(self):
        state = VariationalState(tau=[[1.0]], chi=[[1.5]], a=[[1.0]], b=[[1.0]],
                                 xi=np.full((1, 1, 1), 0.5))
        return FitResult(state=state, restart_index=0,
                         restarts=(RestartSummary([-7.0, -5.0], "converged"),))

    def test_final_elbo_is_last_trace_entry(self):
        assert self.make_result().final_elbo == -5.0

    def test_arrays_are_read_only(self):
        result = self.make_result()
        with pytest.raises(ValueError):
            result.elbo_trace[0] = 0.0
        with pytest.raises(ValueError):
            result.map_labels[0] = 1

    def test_label_dtype_is_integer(self):
        assert self.make_result().map_labels.dtype == np.int64
