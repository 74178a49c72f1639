"""Covariant-channel optimizers: projection, gradients, recovery, broadcast."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from asymmbench import optimize
from asymmbench.errors import SingularTarget
from asymmbench.linalg import fidelity_arrays, max_abs, partial_trace, tensor_product
from asymmbench.optimize import (
    OptimizerConfig,
    fidelity_gradient,
    max_recovery_fidelity,
    optimize_broadcast,
    petz_recovery,
    project_covariant_tp_psd,
)
from asymmbench.qtypes import (
    Channel,
    DensityMatrix,
    SystemSpec,
    apply_channel,
    choi_from_map,
    random_density_matrix,
    tensor_system,
)
from asymmbench.symmetry import (
    CovarianceSector,
    is_covariant_channel,
    measure_ft,
    random_covariant_channel,
)

from conftest import integer_system, random_integer_system

QUBIT = SystemSpec.diagonal([0, 1])
PLUS = DensityMatrix.pure([1, 1])
ZERO = DensityMatrix.pure([1, 0])
HALF = DensityMatrix.maximally_mixed(2)


class TestProjection:
    def test_covariant_choi_is_fixed_point(self, rng):
        ch = random_covariant_channel(QUBIT, QUBIT, rng)
        out = project_covariant_tp_psd(ch.choi, QUBIT, QUBIT)
        assert max_abs(out - ch.choi) <= 1e-10

    def test_zero_projects_to_depolarizing(self):
        out = project_covariant_tp_psd(np.zeros((4, 4), dtype=complex), QUBIT, QUBIT)
        assert max_abs(out - tensor_product(np.eye(2) / 2, np.eye(2))) < 1e-10

    def test_small_perturbations_stay_close(self, rng):
        # projections onto convex sets are nonexpansive
        for _ in range(20):
            ch = random_covariant_channel(QUBIT, QUBIT, rng)
            delta = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            delta = (delta + delta.conj().T) / 2
            delta *= 1e-3 / max_abs(delta)
            out = project_covariant_tp_psd(ch.choi + delta, QUBIT, QUBIT)
            assert max_abs(out - ch.choi) <= 1e-2

    def test_result_is_valid_covariant_channel(self, rng):
        sys_in = random_integer_system(2, rng)
        sys_out = random_integer_system(3, rng)
        j = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        out = project_covariant_tp_psd((j + j.conj().T) / 2, sys_in, sys_out)
        ch = Channel(sys_in, sys_out, out)  # validates CP and TP
        assert is_covariant_channel(ch, 1e-9).ok

    def test_affine_projections_commute(self, rng):
        # the dephasing and trace-preservation projections are order
        # independent and idempotent
        sys_in = random_integer_system(2, rng)
        sys_out = random_integer_system(3, rng)
        sec = CovarianceSector.for_channel(sys_out, sys_in)
        eye_in, eye_out = np.eye(2), np.eye(3)

        def tp_fix(x):
            marg = partial_trace(x, [3, 2], keep=[1])
            return x + tensor_product(eye_out, eye_in - marg) / 3

        j = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        j = (j + j.conj().T) / 2
        a = tp_fix(sec.dephase(j))
        b = sec.dephase(tp_fix(j))
        assert max_abs(a - b) < 1e-10
        assert max_abs(tp_fix(sec.dephase(a)) - a) < 1e-10


def _random_hermitian(d, rng, scale=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (g + g.conj().T) / 2


def _check_projection(j, sys_in, sys_out, rng, n_witnesses=10):
    """Feasibility and optimality of P(j): TP, PSD, covariant, and the
    variational inequality <j - P, C - P> <= 0 over covariant channels C."""
    out = project_covariant_tp_psd(j, sys_in, sys_out)
    marg = partial_trace(out, [sys_out.dim, sys_in.dim], keep=[1])
    assert max_abs(marg - np.eye(sys_in.dim)) <= 1e-12
    assert np.linalg.eigvalsh(out)[0] >= -1e-14
    assert is_covariant_channel(Channel(sys_in, sys_out, out), 1e-9).ok
    for _ in range(n_witnesses):
        c = random_covariant_channel(sys_in, sys_out, rng).choi
        assert np.vdot(j - out, c - out).real <= 1e-10
    return out


class TestDualNewtonProjection:
    def test_variational_inequality(self, rng):
        for d_in, d_out in [(2, 2), (2, 3), (3, 2), (2, 4)]:
            sys_in = random_integer_system(d_in, rng)
            sys_out = random_integer_system(d_out, rng)
            for _ in range(5):
                j = _random_hermitian(d_in * d_out, rng)
                _check_projection(j, sys_in, sys_out, rng)

    def test_tp_residual_and_positivity_near_feasible(self, rng):
        sys_out = tensor_system(QUBIT, QUBIT)
        for _ in range(20):
            ch = random_covariant_channel(QUBIT, sys_out, rng)
            j = ch.choi + 0.3 * _random_hermitian(8, rng)
            _check_projection(j, QUBIT, sys_out, rng, n_witnesses=2)

    def test_covariant_at_choi_dim_27(self, rng):
        qutrit = SystemSpec.diagonal([0, 1, 2])
        sys_out = tensor_system(qutrit, qutrit)
        ch = random_covariant_channel(qutrit, sys_out, rng)
        j = ch.choi + 0.3 * _random_hermitian(27, rng)
        _check_projection(j, qutrit, sys_out, rng, n_witnesses=3)

    def test_undephased_scaled_start(self, rng):
        # a random Hermitian start ten times the size of a channel, far
        # from the covariant subspace
        sys_out = tensor_system(QUBIT, QUBIT)
        for _ in range(5):
            _check_projection(_random_hermitian(8, rng, 10.0), QUBIT, sys_out, rng)

    def test_degenerate_spectra(self, rng):
        # a degenerate input level pair makes the TP multiplier Y
        # non-diagonal in the sector basis
        for spec_in, spec_out in [((0, 0), (0, 1)), ((0, 1, 1), (0, 0, 1)), ((1, 1, 1), (0, 2))]:
            sys_in = integer_system(spec_in, rng)
            sys_out = integer_system(spec_out, rng)
            for _ in range(3):
                j = _random_hermitian(len(spec_in) * len(spec_out), rng)
                _check_projection(j, sys_in, sys_out, rng)

    def test_degenerate_random_integer_systems(self, rng):
        checked = 0
        while checked < 5:
            sys_in = random_integer_system(3, rng, span=1)
            if len(set(sys_in.spectrum)) == 3:
                continue
            sys_out = random_integer_system(2, rng, span=1)
            _check_projection(_random_hermitian(6, rng), sys_in, sys_out, rng)
            checked += 1

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        spec_in=st.lists(st.integers(-2, 2), min_size=1, max_size=3),
        spec_out=st.lists(st.integers(-2, 2), min_size=1, max_size=3),
        scale=st.sampled_from([0.0, 0.1, 1.0, 5.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_small_dimensions(self, spec_in, spec_out, scale, seed):
        rng = np.random.default_rng(seed)
        sys_in = integer_system(spec_in, rng)
        sys_out = integer_system(spec_out, rng)
        d = sys_in.dim * sys_out.dim
        c = random_covariant_channel(sys_in, sys_out, rng).choi
        j = c + scale * _random_hermitian(d, rng)
        out = _check_projection(j, sys_in, sys_out, rng, n_witnesses=3)
        assert max_abs(project_covariant_tp_psd(out, sys_in, sys_out) - out) <= 1e-10


class TestFidelityGradient:
    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            rho = random_density_matrix(d, d, rng)
            x = random_density_matrix(d, d, rng)
            g = fidelity_gradient(rho, x)
            direction = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            direction = (direction + direction.conj().T) / 2
            direction /= np.linalg.norm(direction)
            h = 1e-5
            fd = (
                fidelity_arrays(rho.mat, x.mat + h * direction)
                - fidelity_arrays(rho.mat, x.mat - h * direction)
            ) / (2 * h)
            an = float(np.trace(g @ direction).real)
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(fd))

    def test_pure_target_scalar_rule(self, rng):
        # directional derivative of sqrt(<psi|X|psi>)
        psi = np.array([1.0, 1.0j]) / math.sqrt(2)
        rho = DensityMatrix.pure(psi)
        x = random_density_matrix(2, 2, rng)
        g = fidelity_gradient(rho, x)
        direction = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        direction = (direction + direction.conj().T) / 2
        expect = np.vdot(psi, direction @ psi).real / (
            2 * math.sqrt(np.vdot(psi, x.mat @ psi).real)
        )
        assert abs(float(np.trace(g @ direction).real) - expect) < 1e-8

    def test_gradient_orthogonal_to_tp_directions_at_maximum(self, rng):
        # at X = rho the gradient is proportional to the support projector,
        # so it has zero overlap with traceless directions
        rho = random_density_matrix(3, 3, rng)
        g = fidelity_gradient(rho, rho)
        direction = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        direction = (direction + direction.conj().T) / 2
        direction -= np.trace(direction) * np.eye(3) / 3
        assert abs(float(np.trace(g @ direction).real)) < 1e-6


class TestMaxRecoveryFidelity:
    def test_identity_instance(self, rng):
        rho = random_density_matrix(2, 2, rng)
        res = max_recovery_fidelity(rho, rho, QUBIT, QUBIT)
        assert res.value <= 1e-6
        assert res.converged

    def test_plus_from_maximally_mixed(self):
        res = max_recovery_fidelity(PLUS, HALF, QUBIT, QUBIT)
        assert abs(res.value - 0.5) <= 1e-3
        assert res.converged

    def test_zero_from_maximally_mixed(self):
        res = max_recovery_fidelity(ZERO, HALF, QUBIT, QUBIT)
        assert res.value <= 1e-6
        assert res.converged

    def test_trace_monotone(self):
        res = max_recovery_fidelity(PLUS, HALF, QUBIT, QUBIT)
        vals = [v for _, v in res.fidelity_trace]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_reachable_targets_recovered(self, rng):
        # sigma produced from rho by a covariant channel built to be
        # reversible by construction: a group-action unitary
        for _ in range(5):
            rho = random_density_matrix(2, 2, rng)
            t = float(rng.uniform(0, 2 * math.pi))
            u = QUBIT.translation(t)
            sigma = DensityMatrix(u @ rho.mat @ u.conj().T)
            res = max_recovery_fidelity(rho, sigma, QUBIT, QUBIT)
            assert res.value <= 1e-6

    def test_recovery_channel_is_covariant(self):
        res = max_recovery_fidelity(PLUS, HALF, QUBIT, QUBIT)
        assert is_covariant_channel(res.best_recovery, 1e-8).ok


def _recovery_pair(seed: int, d: int, pure: bool):
    """(system, rho, E, E(rho)) for a random rho and covariant channel E."""
    rng = np.random.default_rng(seed)
    system = SystemSpec.diagonal(range(d))
    if pure:
        rho = DensityMatrix.pure(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    else:
        rho = random_density_matrix(d, d, rng)
    channel = random_covariant_channel(system, system, rng)
    return system, rho, channel, apply_channel(channel, rho)


RECOVERY_PAIRS = dict(
    seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]), pure=st.booleans()
)
# The bounds hold at every iterate, and mixed targets can take hundreds of
# steps to certify, so the properties run short ascents.
SHORT = OptimizerConfig(max_iter=30)


class TestRecoveryCertificate:
    @settings(max_examples=30, deadline=None, database=None)
    @given(**RECOVERY_PAIRS)
    def test_lower_bound_below_achieved(self, seed, d, pure):
        system, rho, _, sigma = _recovery_pair(seed, d, pure)
        res = max_recovery_fidelity(rho, sigma, system, system, SHORT)
        assert 0.0 <= res.irrev_lower <= res.value

    def test_plus_from_maximally_mixed_bracketed(self):
        # the optimum is 1/2, reached by the identity start
        res = max_recovery_fidelity(PLUS, HALF, QUBIT, QUBIT)
        assert res.irrev_lower <= 0.5 + 1e-12
        assert res.value >= 0.5 - 1e-12
        assert res.value - res.irrev_lower <= 1e-12

    @settings(max_examples=30, deadline=None, database=None)
    @given(**RECOVERY_PAIRS)
    def test_petz_below_certified_fidelity(self, seed, d, pure):
        # the Petz map of E at the maximally mixed prior is covariant, so
        # the certified upper bound on the fidelity covers it
        system, rho, channel, sigma = _recovery_pair(seed, d, pure)
        petz = petz_recovery(channel, DensityMatrix.maximally_mixed(d))
        petz_fid = fidelity_arrays(rho.mat, apply_channel(petz, sigma).mat)
        res = max_recovery_fidelity(rho, sigma, system, system, SHORT)
        assert petz_fid <= math.sqrt(1.0 - res.irrev_lower) + 1e-9

    def test_singular_target_is_uncertified(self, monkeypatch):
        def no_gradient(*args):
            raise SingularTarget("no gradient")

        monkeypatch.setattr(optimize, "fidelity_gradient", no_gradient)
        res = max_recovery_fidelity(PLUS, HALF, QUBIT, QUBIT)
        assert not res.converged and res.gap == math.inf
        assert res.irrev_lower == 0.0
        assert len(res.fidelity_trace) == 1


class TestPetzRecovery:
    def test_identity(self):
        ident = Channel(QUBIT, QUBIT, choi_from_map(lambda m: m, 2, 2))
        p = petz_recovery(ident, HALF)
        assert max_abs(p.choi - ident.choi) < 1e-10

    def test_depolarizing(self):
        depol = Channel(
            QUBIT, QUBIT, choi_from_map(lambda m: np.trace(m) * np.eye(2) / 2, 2, 2)
        )
        p = petz_recovery(depol, HALF)
        assert max_abs(p.choi - depol.choi) < 1e-10

    def test_dephasing_self_fixed(self):
        deph = Channel(QUBIT, QUBIT, choi_from_map(lambda m: np.diag(np.diag(m)), 2, 2))
        p = petz_recovery(deph, HALF)
        assert max_abs(p.choi - deph.choi) < 1e-10

    def test_covariant_channel_symmetric_prior_gives_covariant_petz(self, rng):
        for _ in range(10):
            ch = random_covariant_channel(QUBIT, QUBIT, rng)
            p = petz_recovery(ch, HALF)
            assert is_covariant_channel(p, 1e-8).ok

    def test_petz_no_better_than_optimum(self, rng):
        # baseline property: the transpose channel never beats the optimizer
        for _ in range(5):
            ch = random_covariant_channel(QUBIT, QUBIT, rng)
            rho = random_density_matrix(2, 2, rng)
            sigma = apply_channel(ch, rho)
            petz = petz_recovery(ch, HALF)
            petz_fid = fidelity_arrays(rho.mat, apply_channel(petz, sigma).mat)
            res = max_recovery_fidelity(rho, sigma, QUBIT, QUBIT)
            assert petz_fid <= res.fidelity + 1e-6


class TestOptimizeBroadcast:
    def test_symmetric_input_stays_symmetric(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        attempts = optimize_broadcast(
            rho, QUBIT, QUBIT, math.pi / 2, (0.0, 4.0), OptimizerConfig(max_iter=60)
        )
        for att in attempts:
            assert att.output_coherence <= 1e-8

    def test_unconstrained_moves_full_coherence(self):
        attempts = optimize_broadcast(
            PLUS, QUBIT, QUBIT, math.pi / 2, (0.0,), OptimizerConfig(max_iter=60)
        )
        assert attempts[0].output_coherence > 0.2

    def test_high_penalty_kills_both(self):
        attempts = optimize_broadcast(
            PLUS, QUBIT, QUBIT, math.pi / 2, (0.0, 256.0), OptimizerConfig(max_iter=60)
        )
        last = attempts[-1]
        assert last.marginal_disturbance <= 1e-5
        assert last.output_coherence <= 1e-4

    def test_far_ascent_candidates_project(self):
        # the lambda = 1 ascent at t = 3 pi / 4 tries candidates with entries
        # near 100, whose projections take Newton steps below the roundoff
        # of the dual value
        attempts = optimize_broadcast(
            PLUS, QUBIT, QUBIT, 3 * math.pi / 4, (0.0, 1.0), OptimizerConfig(max_iter=200)
        )
        for att in attempts:
            assert is_covariant_channel(att.map, 1e-8).ok

    def test_restarts_draw_random_starts(self, monkeypatch):
        # optimizer.restarts random covariant starts at the first penalty,
        # drawn in turn from one generator, so the first draw never moves
        drawn = []

        def counting(sys_in, sys_out, rng):
            ch = random_covariant_channel(sys_in, sys_out, rng)
            drawn.append(ch.choi)
            return ch

        monkeypatch.setattr(optimize, "random_covariant_channel", counting)
        for restarts in (1, 2):
            cfg = OptimizerConfig(max_iter=20, restarts=restarts, seed=3)
            optimize_broadcast(PLUS, QUBIT, QUBIT, math.pi / 2, (0.0, 16.0), cfg)
        assert len(drawn) == 3
        assert np.array_equal(drawn[0], drawn[1])
        assert not np.allclose(drawn[1], drawn[2])

    def test_attempts_are_covariant_channels(self):
        attempts = optimize_broadcast(
            PLUS, QUBIT, QUBIT, math.pi / 2, (0.0, 1.0), OptimizerConfig(max_iter=60)
        )
        for att in attempts:
            assert is_covariant_channel(att.map, 1e-8).ok

    def test_per_recovery_inequality(self, rng):
        # for any covariant recovery applied to the broadcast marginal:
        # (1 - f_t(psi)) f_t(sigma_S') <= 4 sqrt(1 - Fid^2(psi, R(sigma_Q)))
        t = math.pi / 2
        ft_in = measure_ft(PLUS, QUBIT, t)
        attempts = optimize_broadcast(
            PLUS, QUBIT, QUBIT, t, (0.0, 1.0, 16.0), OptimizerConfig(max_iter=60)
        )
        worst = -float("inf")
        for att in attempts:
            joint = apply_channel(att.map, PLUS)
            sig_q = partial_trace(joint.mat, [2, 2], keep=[0])
            for _ in range(170):
                rec = random_covariant_channel(QUBIT, QUBIT, rng)
                from asymmbench.qtypes import apply_choi

                recovered = apply_choi(rec.choi, 2, 2, sig_q)
                fid = fidelity_arrays(PLUS.mat, recovered)
                lhs = (1 - ft_in) * att.output_coherence
                rhs = 4 * math.sqrt(max(0.0, 1 - fid * fid))
                worst = max(worst, lhs - rhs)
        assert worst <= 1e-9
