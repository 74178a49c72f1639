"""Experiment runners: constructions, assertions, and flagged failure modes."""
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from asymmbench import experiments
from asymmbench.errors import DimensionMismatch, PreconditionFailed, SizeCap
from asymmbench.experiments import (
    EXPERIMENTS,
    Assertion,
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
from asymmbench.ki import lemma4_reduced_form_check
from asymmbench.linalg import dagger, fidelity_arrays, max_abs, tensor_product
from asymmbench.optimize import BroadcastAttempt, OptimizerConfig
from asymmbench.qtypes import (
    Channel,
    DensityMatrix,
    SystemSpec,
    choi_from_map,
    cyclic_shift_system,
    normalized_gram,
    random_density_matrix,
    tensor_system,
)
from asymmbench.symmetry import (
    is_covariant_channel,
    is_symmetric_state,
    measure_ft,
    skew_information,
)

from conftest import witness

QUBIT = SystemSpec.diagonal([0, 1])
PLUS = DensityMatrix.pure([1, 1])
FAST = OptimizerConfig(max_iter=80)


class TestUniversalCloner:
    def test_qubit_pair_shrink(self):
        res = universal_cloner(PLUS, 2)
        assert abs(res.shrink - 2 / 3) < 1e-15
        assert res.trace_error < 1e-12
        assert res.marginal_error < 1e-10

    def test_single_output_identity(self, rng):
        rho = random_density_matrix(3, 3, rng)
        res = universal_cloner(rho, 1)
        assert abs(res.shrink - 1.0) < 1e-15
        assert res.marginal_error < 1e-12  # at n = 1, max |joint - rho|

    def test_triple_clone_marginal(self):
        res = universal_cloner(PLUS, 3)
        expect = (5 / 9) * PLUS.mat + (4 / 9) * np.eye(2) / 2
        assert max_abs(cloner_marginal(PLUS.mat, 3) - expect) < 1e-10
        assert res.marginal_error < 1e-10

    def test_formula_matches_explicit_map(self, rng):
        for d, n in [(2, 2), (2, 4), (3, 2), (3, 3)]:
            rho = random_density_matrix(d, int(rng.integers(1, d + 1)), rng)
            res = universal_cloner(rho, n)
            assert res.marginal_error <= 1e-10

    def test_formula_matches_at_larger_dimensions(self, rng):
        # spans the d^n <= 1024 envelope beyond the acceptance dims
        for d, n in [(4, 2), (4, 3), (4, 4), (5, 3), (5, 4), (8, 2)]:
            rho = random_density_matrix(d, d, rng)
            res = universal_cloner(rho, n)
            assert res.marginal_error <= 1e-10
            assert res.trace_error <= 1e-10

    def test_size_cap(self):
        with pytest.raises(SizeCap):
            universal_cloner(DensityMatrix.maximally_mixed(2), 5)

    def test_cloner_run_stops_at_the_first_refused_n(self, monkeypatch):
        # the cap grows with n, so a huge n_max costs what n_max 4 costs:
        # two calls (maximally mixed, one trial) for n = 1..4, then n = 5 refused
        calls = []

        def counted(rho, n):
            calls.append(n)
            return universal_cloner(rho, n)

        monkeypatch.setattr(experiments, "universal_cloner", counted)
        values = {"n_max": 10_000, "d_list": [2], "trials_per_case": 1}
        records, _ = EXPERIMENTS["cloner"].run(values, 0)
        assert [r["n"] for r in records] == [1, 2, 3, 4]
        assert len(calls) <= 9


class TestNonadditivity:
    def test_all_constructions_violate(self):
        _, assertions = run_nonadditivity()
        assert all(a.passed for a in assertions)

    def test_bell_joint_value(self):
        records, assertions = run_nonadditivity()
        assert all(a.passed for a in assertions)
        bell_row = next(
            r for r in records
            if r["construction"] == "EntangledSubadditivity" and r["measure"] == "skew_information"
        )
        assert abs(bell_row["f_joint"] - 1.0) < 1e-10
        assert bell_row["f_margA"] == 0.0 and bell_row["f_margB_or_n_scaled"] == 0.0

    def test_smallest_cloner_n_brute_force(self):
        # independent analytic oracle: n (1 - sqrt(1 - c_n^2)) / 4 vs 1/4
        first = None
        for n in range(1, 65):
            c = cloner_shrink_factor(2, n)
            if n * 0.25 * (1 - math.sqrt(1 - c * c)) > 0.25 + 1e-9:
                first = n
                break
        assert first == 14
        _, assertions = run_nonadditivity()
        assert all(a.passed for a in assertions)
        assert witness(assertions, "cloner_superadditivity_violated") == 14.0

    def test_unviolated_fidelity_row_fails(self, monkeypatch):
        # a planted f_t that vanishes: the skew-information rows alone
        # must not carry the sub-additivity assertions
        monkeypatch.setattr(experiments, "measure_ft", lambda rho, sys, t: 0.0)
        records, assertions = run_nonadditivity()
        assert any(
            not r["violated"] for r in records if r["measure"].startswith("fidelity_shift")
        )
        failed = {a.name: a.witness for a in assertions if not a.passed}
        assert set(failed) == {
            "entangled_subadditivity_violated",
            "classical_register_subadditivity_violated",
        }
        assert abs(failed["entangled_subadditivity_violated"] - 1.0) < 1e-10

    def test_numeric_skew_matches_closed_form_on_marginals(self):
        for n in (2, 7, 14, 30):
            c = cloner_shrink_factor(2, n)
            rho = DensityMatrix(cloner_marginal(PLUS.mat, n))
            assert abs(skew_information(rho, QUBIT) - 0.25 * (1 - math.sqrt(1 - c * c))) < 1e-9


def scalar_lemma8(rng, trials, dims):
    """Per-dim worst violation from a per-trial loop over fidelity_arrays.

    The reference for the batched runner: the same array draws, cut into
    trials, with each Gaussian factor sliced to its rank.
    """
    drawn = np.asarray(dims)[rng.integers(len(dims), size=trials)]
    per_dim = {}
    for d in sorted(set(dims)):
        n = int(np.count_nonzero(drawn == d))
        if n == 0:
            continue
        ranks = rng.integers(1, d + 1, size=(2, n))
        re_part, im_part = rng.standard_normal((2, 3, n, d, d))
        specs = rng.integers(-3, 4, size=(n, d))
        shifts = rng.uniform(0.0, 2 * math.pi, size=n)
        for k in range(n):
            g1, g2, h = re_part[:, k] + 1j * im_part[:, k]
            tau1 = normalized_gram(g1[:, : ranks[0, k]])
            tau2 = normalized_gram(g2[:, : ranks[1, k]])
            q, _ = np.linalg.qr(h)
            u = (q * np.exp(-1j * specs[k] * shifts[k])) @ dagger(q)
            lhs = abs(
                fidelity_arrays(u @ tau1 @ dagger(u), tau1)
                - fidelity_arrays(u @ tau2 @ dagger(u), tau2)
            )
            rhs = 4.0 * math.sqrt(max(0.0, 1.0 - fidelity_arrays(tau1, tau2)))
            per_dim[d] = max(per_dim.get(d, -math.inf), lhs - rhs)
    return per_dim


def approx_lemma8(expected):
    """The oracle's values to 1e-12, some 4,500 float64 ulps at order one.

    A masked factor's Gram matrix sums in another order than the sliced
    one's, so the last bits may differ; seeds 0-59 over d <= 8 differed
    by at most 7e-15.
    """
    return pytest.approx(expected, rel=0, abs=1e-12)


class TestPerturbationLemma:
    def test_dimension_cap(self):
        cap = experiments._LEMMA8_DIM_CAP
        records, _ = check_fidelity_perturbation_lemma(np.random.default_rng(0), 3, [cap])
        assert [r["dim"] for r in records] == [cap]
        with pytest.raises(SizeCap):
            check_fidelity_perturbation_lemma(np.random.default_rng(0), 3, [2, cap + 1])

    def test_trial_cap_refuses_before_any_draw(self):
        # trials times the largest d^2 may reach the default 10,000 trials at the cap
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(SizeCap, match="10001 x 8"):
            check_fidelity_perturbation_lemma(rng, 10_001, [2, experiments._LEMMA8_DIM_CAP])
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize(
        "seed, dims", [(0, (2, 3, 4)), (7, (2, 3, 4)), (1, (5,)), (2, (3,)), (3, (2, 4, 5))]
    )
    def test_batched_equals_scalar_loop(self, seed, dims):
        records, assertions = check_fidelity_perturbation_lemma(
            np.random.default_rng(seed), 300, dims
        )
        assert all(a.passed for a in assertions)
        expected = scalar_lemma8(np.random.default_rng(seed), 300, dims)
        assert {r["dim"]: r["max_violation"] for r in records} == approx_lemma8(expected)
        assert witness(assertions, "perturbation_bound") == approx_lemma8(max(expected.values()))

    def test_repeated_dim_keeps_its_weight(self, monkeypatch):
        # dims [2, 2, 3]: one record per distinct d, and d = 2 drawn about
        # twice as often as d = 3
        counts = {}
        batched = experiments._perturbation_violations

        def counted(rng, d, n):
            counts[d] = n
            return batched(rng, d, n)

        monkeypatch.setattr(experiments, "_perturbation_violations", counted)
        dims = [2, 2, 3]
        records, [bound] = check_fidelity_perturbation_lemma(np.random.default_rng(5), 1200, dims)
        assert [r["dim"] for r in records] == [2, 3] and bound.passed
        assert sum(counts.values()) == 1200 and 1.8 < counts[2] / counts[3] < 2.2
        expected = scalar_lemma8(np.random.default_rng(5), 1200, dims)
        assert {r["dim"]: r["max_violation"] for r in records} == approx_lemma8(expected)

    # No shrink phase: every example reruns the scalar oracle, and shrinking
    # a planted stream fault took minutes.  The failing seed is still shown.
    @settings(
        max_examples=20,
        deadline=None,
        database=None,
        phases=(Phase.explicit, Phase.generate),
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.lists(st.integers(2, 5), min_size=1, max_size=4, unique=True),
        trials=st.integers(1, 150),
    )
    def test_same_stream_as_scalar_loop(self, seed, dims, trials):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        records, [bound] = check_fidelity_perturbation_lemma(rng, trials, dims)
        expected = scalar_lemma8(oracle_rng, trials, dims)
        assert {r["dim"]: r["max_violation"] for r in records} == approx_lemma8(expected)
        assert bound.witness == approx_lemma8(max(expected.values()))
        assert bound.passed == (len(expected) == len(dims) and bound.witness <= 1e-9)
        # both consumed exactly the same draws
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_unsampled_dim_fails_with_finite_records(self):
        records, assertions = check_fidelity_perturbation_lemma(
            np.random.default_rng(0), 1, (2, 3, 4)
        )
        assert len(records) == 1
        [bound] = assertions
        assert bound.name == "perturbation_bound" and not bound.passed
        json.dumps([records, [bound.witness]], allow_nan=False)

    def test_drawn_states_are_validated(self, monkeypatch):
        # factors of Frobenius norm sqrt(2) give states of trace 2
        sides = experiments._perturbation_sides
        monkeypatch.setattr(experiments, "_perturbation_sides", lambda f, u: sides(2**0.5 * f, u))
        with pytest.raises(DimensionMismatch):
            check_fidelity_perturbation_lemma(np.random.default_rng(0), 5)

    def test_no_trials_is_refused(self, rng):
        with pytest.raises(PreconditionFailed):
            check_fidelity_perturbation_lemma(rng, 0)

    def test_equal_states_saturate_nothing(self, rng):
        f = unit_factors(rng, 200, 3)
        lhs, rhs = experiments._perturbation_sides(np.stack([f, f]), random_unitaries(rng, 200, 3))
        assert np.all(lhs == 0.0) and np.all(lhs - rhs <= 0.0)

    def test_monte_carlo_small(self, rng):
        _, assertions = check_fidelity_perturbation_lemma(rng, trials=800)
        assert all(a.passed for a in assertions)
        assert witness(assertions, "perturbation_bound") <= 1e-9

    def test_translation_invariant_second_state(self, rng):
        # f2 = I/sqrt(d) gives tau2 = I/d, whose moved fidelity is 1, so the
        # lhs is 1 - Fid(u tau1 u†, tau1)
        for d in (2, 3):
            f1 = unit_factors(rng, 300, d)
            f2 = np.broadcast_to(np.eye(d) / math.sqrt(d), f1.shape)
            u = random_unitaries(rng, 300, d)
            lhs, rhs = experiments._perturbation_sides(np.stack([f1, f2]), u)
            moved = [
                fidelity_arrays(uk @ t @ dagger(uk), t)
                for uk, t in zip(u, f1 @ dagger(f1))
            ]
            assert lhs == pytest.approx(1.0 - np.array(moved), rel=0, abs=1e-12)
            assert np.max(lhs - rhs) <= 1e-9

    def test_constructed_qubit_pair_nears_the_bound(self):
        # H = diag(0, 1) and s = pi give u = diag(1, -1); tau1 = |+><+| and
        # tau2 is pure at angle pi/4 + 1e-3.  lhs/rhs tends to 1/sqrt(2) as
        # the angle nears pi/4, where 10^4 random trials stay below 0.57.
        theta = math.pi / 4 + 1e-3
        f = np.zeros((2, 1, 2, 2))
        f[0, 0, :, 0] = math.sqrt(0.5)
        f[1, 0, :, 0] = math.cos(theta), math.sin(theta)
        u = SystemSpec.diagonal([0, 1]).translation(math.pi)[None]
        [lhs], [rhs] = experiments._perturbation_sides(f, u)
        assert lhs / rhs >= 0.7071 and lhs - rhs < 0.0

    def test_takes_no_square_root(self, monkeypatch):
        # the fidelities come from the drawn factors: no eigendecomposition,
        # and two batched SVDs per sampled dimension
        def refuse(*args, **kwargs):
            raise AssertionError("lemma8 took an eigendecomposition")

        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "svd", counted)
        records, [bound] = check_fidelity_perturbation_lemma(np.random.default_rng(3), 300)
        assert [r["dim"] for r in records] == [2, 3, 4] and bound.passed
        assert len(calls) == 6


def unit_factors(rng, n, d):
    """n complex Gaussian d x d factors, each of unit Frobenius norm."""
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return g / np.linalg.norm(g, axis=(-2, -1), keepdims=True)


def random_unitaries(rng, n, d):
    """n translations e^{-iHs}, each with a random H-eigenbasis, spectrum and shift."""
    q = np.linalg.qr(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))[0]
    phases = np.exp(-1j * rng.integers(-2, 3, size=(n, d)) * rng.uniform(0, 2 * math.pi, (n, 1)))
    return (q * phases[:, None, :]) @ dagger(q)


class TestDegradation:
    def test_twirled_partial_swap_instance(self):
        lam = twirled_partial_swap(QUBIT, QUBIT, math.pi / 4)
        [record], assertions = run_degradation_demo(lam, PLUS, QUBIT, QUBIT)
        assert all(a.passed for a in assertions)
        assert not record["induced_covariant"]
        assert record["induced_witness"] > 0.01
        assert record["converged"]
        assert record["irrev_lower_bound"] > 1e-3

    def test_symmetric_input_no_claim(self):
        lam = twirled_partial_swap(QUBIT, QUBIT, math.pi / 4)
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        [record], assertions = run_degradation_demo(lam, rho, QUBIT, QUBIT)
        assert record["induced_covariant"]
        assert record["induced_witness"] <= 1e-8
        assert assertions == ()

    def test_identity_joint_channel(self):
        joint = tensor_system(QUBIT, QUBIT)
        ident = Channel(joint, joint, choi_from_map(lambda m: m, 4, 4))
        [record], assertions = run_degradation_demo(ident, PLUS, QUBIT, QUBIT)
        assert all(a.passed for a in assertions)
        assert record["induced_covariant"]
        assert record["irrev_lower_bound"] == 0.0

    def test_covariant_induced_map_claims_no_convergence(self):
        # at angle 0 the partial swap is the identity: the induced map is
        # covariant, no recovery runs, and nothing is certified
        lam = twirled_partial_swap(QUBIT, QUBIT, 0.0)
        [record], assertions = run_degradation_demo(lam, PLUS, QUBIT, QUBIT)
        assert record["induced_covariant"]
        assert assertions == ()
        assert record["converged"] is False

    def test_non_covariant_joint_rejected(self):
        joint = tensor_system(QUBIT, QUBIT)
        h = np.kron(
            np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2), np.eye(2)
        )
        bad = Channel(joint, joint, choi_from_map(lambda m: h @ m @ h.conj().T, 4, 4))
        with pytest.raises(PreconditionFailed):
            run_degradation_demo(bad, PLUS, QUBIT, QUBIT)


class TestPreconditionWitness:
    """A refused input's witness is in the message, which is what the CLI prints."""

    def test_symmetric_sweep_state(self):
        rho = DensityMatrix(np.array([[0.3, 1e-10], [1e-10, 0.7]], dtype=complex))
        found = is_symmetric_state(rho, QUBIT).witness
        assert 0.0 < found <= 1e-9
        with pytest.raises(PreconditionFailed, match=re.escape(f"{found:.3e}")):
            run_no_broadcast_sweep(rho, QUBIT, QUBIT)

    def test_impure_tradeoff_state(self):
        rho = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
        with pytest.raises(PreconditionFailed, match=r"top eigenvalue 0\.9\)"):
            run_tradeoff_sweep(rho, QUBIT, QUBIT, t_grid=(1.0,))

    def test_non_covariant_joint_channel(self):
        joint = tensor_system(QUBIT, QUBIT)
        h = np.kron(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2), np.eye(2))
        bad = Channel(joint, joint, choi_from_map(lambda m: h @ m @ h.conj().T, 4, 4))
        found = is_covariant_channel(bad).witness
        assert found > 1e-8
        with pytest.raises(PreconditionFailed, match=re.escape(f"{found:.3e}")):
            run_degradation_demo(bad, PLUS, QUBIT, QUBIT)


class TestComplementarity:
    def _out_sys(self):
        return tensor_system(QUBIT, QUBIT)

    def test_identity_prepare(self, rng):
        tau = random_density_matrix(2, 2, rng)
        ch = Channel(
            QUBIT, self._out_sys(), choi_from_map(lambda m: tensor_product(tau.mat, m), 2, 4)
        )
        [record], assertions = check_broadcast_complementarity(ch)
        assert all(a.passed for a in assertions)
        assert record["identity_marginal"]
        assert record["erasure_residual"] <= 1e-10

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
        [record], assertions = check_broadcast_complementarity(ch)
        assert all(a.passed for a in assertions)
        assert not record["identity_marginal"]
        # deviation reflects the shrink factor 2/3
        assert abs(record["identity_deviation"] - 1 / 3) < 1e-9

    def test_move_to_s(self, rng):
        tau = random_density_matrix(2, 2, rng)
        ch = Channel(
            QUBIT, self._out_sys(), choi_from_map(lambda m: tensor_product(m, tau.mat), 2, 4)
        )
        [record], assertions = check_broadcast_complementarity(ch)
        assert all(a.passed for a in assertions)
        assert not record["identity_marginal"]


class TestNoBroadcastSweep:
    def test_symmetric_input_rejected(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        with pytest.raises(PreconditionFailed):
            run_no_broadcast_sweep(rho, QUBIT, QUBIT)

    def test_classical_control_only(self):
        _, assertions = run_no_broadcast_sweep(
            PLUS, QUBIT, QUBIT, lambda_schedule=(0.0, 16.0), optimizer=FAST
        )
        assert all(a.passed for a in assertions)
        assert witness(assertions, "classical_disturbance") <= 1e-8
        assert witness(assertions, "classical_full_coherence") <= 1e-9
        assert witness(assertions, "classical_discrete_covariance") <= 1e-10
        assert witness(assertions, "classical_commuting_orbit") <= 1e-12

    def test_clone_map_not_continuously_covariant(self):
        # the discrete-group cloner must fail the continuous covariance test
        reg = cyclic_shift_system(2)
        ch = clone_in_basis_channel(reg)
        assert is_covariant_channel(ch).witness > 1e-6

    def test_frontier_and_cross_checks(self):
        records, assertions = run_no_broadcast_sweep(
            PLUS, QUBIT, QUBIT, lambda_schedule=(0.0, 4.0, 256.0), optimizer=FAST
        )
        assert any(r["marginal_disturbance"] <= 1e-5 for r in records)
        assert witness(assertions, "smallest_bucket_coherence") <= 1e-4
        assert witness(assertions, "ehrenfest_constancy") <= 1e-7
        assert witness(assertions, "reduced_block_states_symmetric") <= 1e-6
        assert all(a.passed for a in assertions)

    def test_lemma4_residual_above_bound_fails(self, monkeypatch):
        planted = 2 * experiments._LEMMA4_RESIDUAL_TOL

        def loose_fit(*args, **kwargs):
            return replace(lemma4_reduced_form_check(*args, **kwargs), residual=planted)

        monkeypatch.setattr(experiments, "lemma4_reduced_form_check", loose_fit)
        _, assertions = run_no_broadcast_sweep(
            PLUS, QUBIT, QUBIT, lambda_schedule=(0.0, 16.0), optimizer=FAST
        )
        [lemma4] = [a for a in assertions if a.name == "lemma4_reduced_form"]
        assert not lemma4.passed and lemma4.witness == planted
        assert all(a.passed for a in assertions if a.name != "lemma4_reduced_form")

    def test_no_small_disturbance_fails_both_lemma4_checks(self):
        # the move map alone disturbs the marginal by 1/2: nothing to check
        # Lemma 4 on, which must fail rather than drop the checks
        records, assertions = run_no_broadcast_sweep(
            PLUS, QUBIT, QUBIT, lambda_schedule=(0.0,), optimizer=FAST
        )
        smallest = min(r["marginal_disturbance"] for r in records)
        assert smallest > 1e-6
        for name in ("lemma4_reduced_form", "reduced_block_states_symmetric"):
            [check] = [a for a in assertions if a.name == name]
            assert not check.passed and check.witness == smallest


class TestTradeoffSweep:
    def test_small_sweep(self):
        records, assertions = run_tradeoff_sweep(
            PLUS, QUBIT, QUBIT, t_grid=(math.pi / 2,), lambda_schedule=(0.0, 16.0), optimizer=FAST
        )
        assert all(a.passed for a in assertions)
        assert len(records) == 2
        assert all(r["slack"] >= -1e-6 for r in records if r["converged"])
        assert witness(assertions, "rows_skipped_at_full_shift") == 0.0

    def test_mixed_input_refused(self):
        with pytest.raises(PreconditionFailed, match=r"not pure \(top eigenvalue 0\.5\)"):
            run_tradeoff_sweep(DensityMatrix.maximally_mixed(2), QUBIT, QUBIT, t_grid=(1.0,))

    def test_pi_row_skipped(self):
        # the only shift is skipped, so no row checks the bound: that fails
        records, assertions = run_tradeoff_sweep(
            PLUS, QUBIT, QUBIT, t_grid=(math.pi,), lambda_schedule=(0.0,), optimizer=FAST
        )
        assert records == ()
        assert witness(assertions, "rows_skipped_at_full_shift") == 1.0
        slack = next(a for a in assertions if a.name == "tradeoff_slack")
        assert not slack.passed
        within = next(a for a in assertions if a.name == "output_coherence_within_input")
        assert not within.passed

    def test_no_converged_row_fails(self, monkeypatch):
        real = experiments.max_recovery_fidelity
        monkeypatch.setattr(
            experiments,
            "max_recovery_fidelity",
            lambda *args, **kwargs: replace(real(*args, **kwargs), gap=math.inf),
        )
        records, assertions = run_tradeoff_sweep(
            PLUS, QUBIT, QUBIT, t_grid=(math.pi / 2,), lambda_schedule=(64.0,), optimizer=FAST
        )
        slack = next(a for a in assertions if a.name == "tradeoff_slack")
        assert not slack.passed
        assert slack.witness == records[0]["slack"] and math.isfinite(slack.witness)

    def test_output_coherence_above_input_fails(self, monkeypatch):
        # a planted non-covariant broadcast rho -> rho (x) |+><+| hands S'
        # more coherence than a tilted psi has: f_t is no longer monotone
        t = 1.0
        psi = DensityMatrix.pure([math.cos(0.3), math.sin(0.3)])
        planted = Channel(
            QUBIT,
            tensor_system(QUBIT, QUBIT),
            choi_from_map(lambda m: tensor_product(m, PLUS.mat), 2, 4),
        )
        coherence = measure_ft(PLUS, QUBIT, t)
        monkeypatch.setattr(
            experiments,
            "optimize_broadcast",
            lambda *args: [BroadcastAttempt(planted, 0.0, coherence, 0.0)],
        )
        [row], assertions = run_tradeoff_sweep(
            psi, QUBIT, QUBIT, t_grid=(t,), lambda_schedule=(0.0,), optimizer=FAST
        )
        check = next(a for a in assertions if a.name == "output_coherence_within_input")
        assert row["ft_output"] > row["ft_input"] + 0.05
        assert not check.passed and check.witness == row["ft_output"] - row["ft_input"]

    def test_keep_and_prepare_attempt_trivial_row(self):
        # a marginal-preserving attempt has zero output coherence and
        # essentially zero irreversibility: slack equals the full bound
        [row], assertions = run_tradeoff_sweep(
            PLUS, QUBIT, QUBIT, t_grid=(math.pi / 2,), lambda_schedule=(64.0,), optimizer=FAST
        )
        assert all(a.passed for a in assertions)
        assert row["ft_output"] <= 1e-8
        assert row["irrev"] <= 1e-6
        assert row["slack"] >= 0


# Each public runner on a tiny input, under its registry entry's name.
TINY = OptimizerConfig(max_iter=5)
TINY_RUNS = {
    "no_broadcast": lambda: run_no_broadcast_sweep(
        PLUS, QUBIT, QUBIT, lambda_schedule=(0.0,), optimizer=TINY
    ),
    "tradeoff": lambda: run_tradeoff_sweep(
        PLUS, QUBIT, QUBIT, t_grid=(1.0,), lambda_schedule=(0.0,), optimizer=TINY
    ),
    "degradation": lambda: run_degradation_demo(
        twirled_partial_swap(QUBIT, QUBIT, math.pi / 4), PLUS, QUBIT, QUBIT, TINY.max_iter
    ),
    "nonadditivity": run_nonadditivity,
    "lemma8": lambda: check_fidelity_perturbation_lemma(np.random.default_rng(0), 5),
    "complementarity": lambda: check_broadcast_complementarity(
        Channel(
            QUBIT,
            tensor_system(QUBIT, QUBIT),
            choi_from_map(lambda m: tensor_product(np.eye(2) / 2, m), 2, 4),
        )
    ),
}


@pytest.mark.parametrize("name", sorted(TINY_RUNS))
def test_public_runner_returns_records_and_assertions(name):
    records, assertions = TINY_RUNS[name]()
    assert isinstance(records, tuple) and isinstance(assertions, tuple)
    assert records and assertions
    for rec in records:
        assert list(rec) == list(EXPERIMENTS[name].columns)
    assert all(isinstance(a, Assertion) for a in assertions)
