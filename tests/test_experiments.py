"""Experiment runners: constructions, assertions, and flagged failure modes."""
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from asymmbench import experiments
from asymmbench.errors import DimensionMismatch, PreconditionFailed, SizeCap
from asymmbench.experiments import (
    NoBroadcastConfig,
    TradeoffConfig,
    check_broadcast_complementarity,
    check_fidelity_perturbation_lemma,
    clone_in_basis_channel,
    cloner_marginal,
    cloner_shrink_factor,
    run_degradation_demo,
    run_no_broadcast_sweep,
    run_nonadditivity,
    run_tradeoff_sweep,
    twirled_partial_swap,
    universal_cloner,
)
from asymmbench.linalg import dagger, fidelity_arrays, max_abs, tensor_product
from asymmbench.optimize import OptimizerConfig
from asymmbench.qtypes import (
    Channel,
    DensityMatrix,
    PureState,
    SystemSpec,
    choi_from_map,
    cyclic_shift_system,
    normalized_gram,
    random_density_matrix,
    tensor_system,
)
from asymmbench.symmetry import is_covariant_channel, skew_information

QUBIT = SystemSpec.diagonal([0, 1])
PLUS = DensityMatrix.pure([1, 1])
PLUS_VEC = PureState(np.array([1.0, 1.0]) / math.sqrt(2))
FAST = OptimizerConfig(max_iter=80)


class TestUniversalCloner:
    def test_qubit_pair_shrink(self):
        res = universal_cloner(PLUS, 2, 2)
        assert abs(res.shrink - 2 / 3) < 1e-15
        assert res.trace_error < 1e-12
        assert res.marginal_error < 1e-10

    def test_single_output_identity(self, rng):
        rho = random_density_matrix(3, 3, rng)
        res = universal_cloner(rho, 3, 1)
        assert abs(res.shrink - 1.0) < 1e-15
        assert max_abs(res.joint - rho.mat) < 1e-12

    def test_triple_clone_marginal(self):
        res = universal_cloner(PLUS, 2, 3)
        expect = (5 / 9) * PLUS.mat + (4 / 9) * np.eye(2) / 2
        assert max_abs(res.marginal - expect) < 1e-10

    def test_formula_matches_explicit_map(self, rng):
        for d, n in [(2, 2), (2, 4), (3, 2), (3, 3)]:
            rho = random_density_matrix(d, int(rng.integers(1, d + 1)), rng)
            res = universal_cloner(rho, d, n)
            assert res.marginal_error <= 1e-10

    def test_formula_matches_at_larger_dimensions(self, rng):
        # spans the d^n <= 1024 envelope beyond the acceptance dims
        for d, n in [(4, 2), (4, 3), (4, 4), (5, 3), (5, 4), (8, 2)]:
            rho = random_density_matrix(d, d, rng)
            res = universal_cloner(rho, d, n)
            assert res.marginal_error <= 1e-10
            assert res.trace_error <= 1e-10

    def test_size_cap(self):
        with pytest.raises(SizeCap):
            universal_cloner(DensityMatrix.maximally_mixed(2), 2, 5)


class TestNonadditivity:
    def test_all_constructions_violate(self):
        res = run_nonadditivity()
        assert all(a.passed for a in res.assertions)

    def test_bell_joint_value(self):
        res = run_nonadditivity()
        assert all(a.passed for a in res.assertions)
        bell_row = next(
            r for r in res.rows
            if r.construction == "EntangledSubadditivity" and r.measure == "skew_information"
        )
        assert abs(bell_row.f_joint - 1.0) < 1e-10
        assert bell_row.f_margA == 0.0 and bell_row.f_margB_or_n_scaled == 0.0

    def test_smallest_cloner_n_brute_force(self):
        # independent analytic oracle: n (1 - sqrt(1 - c_n^2)) / 4 vs 1/4
        first = None
        for n in range(1, 65):
            c = cloner_shrink_factor(2, n)
            if n * 0.25 * (1 - math.sqrt(1 - c * c)) > 0.25 + 1e-9:
                first = n
                break
        assert first == 14
        res = run_nonadditivity()
        assert all(a.passed for a in res.assertions)
        assert res.smallest_cloner_n == 14

    def test_numeric_skew_matches_closed_form_on_marginals(self):
        for n in (2, 7, 14, 30):
            c = cloner_shrink_factor(2, n)
            rho = DensityMatrix(cloner_marginal(PLUS.mat, 2, n))
            assert abs(skew_information(rho, QUBIT) - 0.25 * (1 - math.sqrt(1 - c * c))) < 1e-9


def scalar_lemma8(rng, trials, dims):
    """Per-dim worst violation from the per-trial loop over fidelity_arrays.

    The reference for the batched runner: same draws, same order.
    """
    per_dim = {}
    for _ in range(trials):
        d = int(rng.choice(list(dims)))
        r1 = int(rng.integers(1, d + 1))
        r2 = int(rng.integers(1, d + 1))
        tau1 = random_density_matrix(d, r1, rng).mat
        tau2 = random_density_matrix(d, r2, rng).mat
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, _ = np.linalg.qr(g)
        spec = rng.integers(-3, 4, size=d).astype(np.float64)
        s = rng.uniform(0.0, 2 * math.pi)
        u = (q * np.exp(-1j * spec * s)) @ dagger(q)
        lhs = abs(
            fidelity_arrays(u @ tau1 @ dagger(u), tau1)
            - fidelity_arrays(u @ tau2 @ dagger(u), tau2)
        )
        rhs = 4.0 * math.sqrt(max(0.0, 1.0 - fidelity_arrays(tau1, tau2)))
        per_dim[d] = max(per_dim.get(d, -math.inf), lhs - rhs)
    return per_dim


class TestPerturbationLemma:
    @pytest.mark.parametrize(
        "seed, dims", [(0, (2, 3, 4)), (7, (2, 3, 4)), (1, (1,)), (2, (3,)), (3, (1, 2, 5))]
    )
    def test_batched_equals_scalar_loop(self, seed, dims):
        res = check_fidelity_perturbation_lemma(np.random.default_rng(seed), 300, dims)
        assert all(a.passed for a in res.assertions)
        expected = scalar_lemma8(np.random.default_rng(seed), 300, dims)
        assert {r["dim"]: r["max_violation"] for r in res.records} == expected
        assert res.max_violation == max(expected.values())

    def test_unsampled_dim_fails_with_finite_records(self):
        res = check_fidelity_perturbation_lemma(np.random.default_rng(0), 1, (2, 3, 4))
        assert len(res.records) == 1
        [bound] = res.assertions
        assert bound.name == "perturbation_bound" and not bound.passed
        json.dumps([res.records, [bound.witness]], allow_nan=False)

    def test_drawn_states_are_validated(self, monkeypatch):
        monkeypatch.setattr(experiments, "normalized_gram", lambda g: 2 * normalized_gram(g))
        with pytest.raises(DimensionMismatch):
            check_fidelity_perturbation_lemma(np.random.default_rng(0), 5)

    def test_no_trials_is_refused(self, rng):
        with pytest.raises(PreconditionFailed):
            check_fidelity_perturbation_lemma(rng, 0)

    def test_equal_states_saturate_nothing(self, rng):
        from asymmbench.linalg import fidelity_arrays

        tau = random_density_matrix(3, 3, rng).mat
        u = SystemSpec.diagonal([0, 1, 2]).translation(0.7)
        lhs = abs(
            fidelity_arrays(u @ tau @ u.conj().T, tau)
            - fidelity_arrays(u @ tau @ u.conj().T, tau)
        )
        assert lhs == 0.0

    def test_monte_carlo_small(self, rng):
        res = check_fidelity_perturbation_lemma(rng, trials=800)
        assert all(a.passed for a in res.assertions)
        assert res.max_violation <= 1e-9

    def test_translation_invariant_second_state(self, rng):
        # tau2 = I/d makes the second fidelity term exactly 1
        from asymmbench.linalg import fidelity_arrays

        worst = -np.inf
        for _ in range(500):
            d = int(rng.choice([2, 3]))
            tau1 = random_density_matrix(d, int(rng.integers(1, d + 1)), rng).mat
            tau2 = np.eye(d) / d
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, _ = np.linalg.qr(g)
            spec = rng.integers(-2, 3, size=d).astype(float)
            u = (q * np.exp(-1j * spec * rng.uniform(0, 2 * math.pi))) @ q.conj().T
            lhs = abs(
                fidelity_arrays(u @ tau1 @ u.conj().T, tau1)
                - fidelity_arrays(u @ tau2 @ u.conj().T, tau2)
            )
            rhs = 4 * math.sqrt(max(0.0, 1 - fidelity_arrays(tau1, tau2)))
            worst = max(worst, lhs - rhs)
        assert worst <= 1e-9


class TestDegradation:
    def test_twirled_partial_swap_instance(self):
        lam = twirled_partial_swap(QUBIT, QUBIT, math.pi / 4)
        res = run_degradation_demo(lam, PLUS, QUBIT, QUBIT, QUBIT, QUBIT)
        assert all(a.passed for a in res.assertions)
        assert not res.induced_covariant
        assert res.induced_witness > 0.01
        assert res.irrev_converged
        assert res.irrev_lower_bound > 1e-3

    def test_symmetric_input_no_claim(self):
        lam = twirled_partial_swap(QUBIT, QUBIT, math.pi / 4)
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        res = run_degradation_demo(lam, rho, QUBIT, QUBIT, QUBIT, QUBIT)
        assert res.induced_covariant
        assert res.induced_witness <= 1e-8
        assert res.assertions == ()

    def test_identity_joint_channel(self):
        joint = tensor_system(QUBIT, QUBIT)
        ident = Channel(joint, joint, choi_from_map(lambda m: m, 4, 4))
        res = run_degradation_demo(ident, PLUS, QUBIT, QUBIT, QUBIT, QUBIT)
        assert all(a.passed for a in res.assertions)
        assert res.induced_covariant
        assert res.irrev_lower_bound == 0.0

    def test_non_covariant_joint_rejected(self):
        joint = tensor_system(QUBIT, QUBIT)
        h = np.kron(
            np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2), np.eye(2)
        )
        bad = Channel(joint, joint, choi_from_map(lambda m: h @ m @ h.conj().T, 4, 4))
        with pytest.raises(PreconditionFailed):
            run_degradation_demo(bad, PLUS, QUBIT, QUBIT, QUBIT, QUBIT)


class TestComplementarity:
    def _out_sys(self):
        return tensor_system(QUBIT, QUBIT)

    def test_identity_prepare(self, rng):
        tau = random_density_matrix(2, 2, rng)
        ch = Channel(
            QUBIT, self._out_sys(), choi_from_map(lambda m: tensor_product(tau.mat, m), 2, 4)
        )
        res = check_broadcast_complementarity(ch)
        assert all(a.passed for a in res.assertions)
        assert res.identity_marginal
        assert res.erasure_residual <= 1e-10

    def test_cloner_not_identity_marginal(self):
        from asymmbench.linalg import symmetric_subspace_projector

        proj = symmetric_subspace_projector(2, 2)
        ch = Channel(
            QUBIT,
            self._out_sys(),
            choi_from_map(
                lambda m: (2 / 3) * proj @ tensor_product(m, np.eye(2)) @ proj, 2, 4
            ),
        )
        res = check_broadcast_complementarity(ch)
        assert all(a.passed for a in res.assertions)
        assert not res.identity_marginal
        # deviation reflects the shrink factor 2/3
        assert abs(res.identity_deviation - 1 / 3) < 1e-9

    def test_move_to_s(self, rng):
        tau = random_density_matrix(2, 2, rng)
        ch = Channel(
            QUBIT, self._out_sys(), choi_from_map(lambda m: tensor_product(m, tau.mat), 2, 4)
        )
        res = check_broadcast_complementarity(ch)
        assert all(a.passed for a in res.assertions)
        assert not res.identity_marginal


class TestNoBroadcastSweep:
    def test_symmetric_input_rejected(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        with pytest.raises(PreconditionFailed):
            run_no_broadcast_sweep(rho, QUBIT, QUBIT)

    def test_classical_control_only(self):
        cfg = NoBroadcastConfig(lambda_schedule=(0.0, 16.0), optimizer=FAST)
        res = run_no_broadcast_sweep(PLUS, QUBIT, QUBIT, cfg)
        assert all(a.passed for a in res.assertions)
        cl = res.classical
        assert cl["disturbance"] <= 1e-8
        assert abs(cl["output_coherence"] - cl["unconstrained_max"]) <= 1e-9
        assert cl["discrete_covariance_witness"] <= 1e-10
        assert cl["commuting_orbit_witness"] <= 1e-12

    def test_clone_map_not_continuously_covariant(self):
        # the discrete-group cloner must fail the continuous covariance test
        reg = cyclic_shift_system(2)
        ch = clone_in_basis_channel(reg)
        assert not is_covariant_channel(ch, 1e-6).ok

    def test_frontier_and_cross_checks(self):
        cfg = NoBroadcastConfig(lambda_schedule=(0.0, 4.0, 256.0), optimizer=FAST)
        res = run_no_broadcast_sweep(PLUS, QUBIT, QUBIT, cfg)
        assert res.smallest_bucket == 1e-5
        assert res.bucket_coherence <= 1e-4
        assert res.ki_block_dims == ((2, 1),)
        assert res.ehrenfest_deviation <= 1e-7
        assert res.block_state_witness <= 1e-6
        assert all(a.passed for a in res.assertions)


class TestTradeoffSweep:
    def test_small_sweep(self):
        cfg = TradeoffConfig(
            t_grid=(math.pi / 2,), lambda_schedule=(0.0, 16.0), optimizer=FAST
        )
        res = run_tradeoff_sweep(PLUS_VEC, QUBIT, QUBIT, cfg)
        assert all(a.passed for a in res.assertions)
        assert len(res.rows) == 2
        assert all(r.slack >= -1e-6 for r in res.rows if r.converged)
        assert res.skipped_t == ()

    def test_pi_row_skipped(self):
        # the only shift is skipped, so no row checks the bound: that fails
        cfg = TradeoffConfig(t_grid=(math.pi,), lambda_schedule=(0.0,), optimizer=FAST)
        res = run_tradeoff_sweep(PLUS_VEC, QUBIT, QUBIT, cfg)
        assert res.rows == ()
        assert res.skipped_t == (math.pi,)
        slack = next(a for a in res.assertions if a.name == "tradeoff_slack")
        assert not slack.passed

    def test_no_converged_row_fails(self, monkeypatch):
        real = experiments.max_recovery_fidelity
        monkeypatch.setattr(
            experiments,
            "max_recovery_fidelity",
            lambda *args, **kwargs: replace(real(*args, **kwargs), converged=False),
        )
        cfg = TradeoffConfig(t_grid=(math.pi / 2,), lambda_schedule=(64.0,), optimizer=FAST)
        res = run_tradeoff_sweep(PLUS_VEC, QUBIT, QUBIT, cfg)
        slack = next(a for a in res.assertions if a.name == "tradeoff_slack")
        assert not slack.passed
        assert slack.witness == res.rows[0].slack and math.isfinite(slack.witness)

    def test_keep_and_prepare_attempt_trivial_row(self):
        # a marginal-preserving attempt has zero output coherence and
        # essentially zero irreversibility: slack equals the full bound
        cfg = TradeoffConfig(
            t_grid=(math.pi / 2,), lambda_schedule=(64.0,), optimizer=FAST
        )
        res = run_tradeoff_sweep(PLUS_VEC, QUBIT, QUBIT, cfg)
        assert all(a.passed for a in res.assertions)
        row = res.rows[0]
        assert row.ft_output <= 1e-8
        assert row.irrev <= 1e-6
        assert row.slack >= 0
