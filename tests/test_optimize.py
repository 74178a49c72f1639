"""Covariant-channel optimizers: projection, gradients, recovery, broadcast."""
import json
import logging
import math
from collections import Counter, namedtuple
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asymmbench import optimize
from asymmbench.errors import NonFinite, NotPSD, SingularTarget
from asymmbench.experiments import run_tradeoff_sweep
from asymmbench.linalg import fidelity_arrays, max_abs, partial_trace, tensor_product
from asymmbench.optimize import (
    DEFAULT_LAMBDA_SCHEDULE,
    OptimizerConfig,
    fidelity_gradient,
    max_recovery_fidelity,
    optimize_broadcast,
    project_covariant_tp_psd,
)
from asymmbench.qtypes import (
    Channel,
    DensityMatrix,
    SystemSpec,
    apply_channel,
    apply_choi,
    choi_from_map,
    random_density_matrix,
    tensor_system,
)
from asymmbench.serialize import matrix_from_json, matrix_to_json
from asymmbench.symmetry import (
    CovarianceSector,
    is_covariant_channel,
    measure_ft,
    random_covariant_channel,
)

from conftest import integer_system, petz_recovery, random_integer_system

DATA = Path(__file__).parent / "data"
QUBIT = SystemSpec.diagonal([0, 1])
PLUS = DensityMatrix.pure([1, 1])
ZERO = DensityMatrix.pure([1, 0])
ONE = DensityMatrix.pure([0, 1])
HALF = DensityMatrix.maximally_mixed(2)
QUTRIT = SystemSpec.diagonal([0, 1, 2])
QUTRIT_UNIFORM = DensityMatrix.pure([1, 1, 1])


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
        assert is_covariant_channel(ch).witness <= 1e-9

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
    assert is_covariant_channel(Channel(sys_in, sys_out, out)).witness <= 1e-9
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

    def test_one_by_one_blocks_read_off_as_eigh_returns_them(self, rng, monkeypatch):
        # The projection reads the 1x1 sector blocks off as one vector.  Laid
        # out as (g, 1, 1) blocks instead, the same sectors go through eigh,
        # and w, X = max(w, 0) and so every projection must come out bit for
        # bit the same.  Level 0 of (0, 7) -> (0, ..., 5) has six 1x1 sectors.
        sys_in = integer_system((0, 7), rng)
        sys_out = integer_system(range(6), rng)
        sec = CovarianceSector.for_channel(sys_out, sys_in)
        tr_e, layout = sec.blocks
        (flat1, level, _), = (group for group in layout if group[2] is None)
        assert np.bincount(level).max() == 6
        e1 = np.eye(tr_e.size, dtype=complex)[level][:, :, None, None]
        via_eigh = tuple(
            (flat1[:, None], e1, e1.conj()) if e_conj is None else (flat, e, e_conj)
            for flat, e, e_conj in layout
        )
        eigh = np.linalg.eigh
        eigh_sizes = []

        def recording_eigh(mb):
            eigh_sizes.append(mb.shape[-1])
            return eigh(mb)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        js = [10.0**k * _random_hermitian(12, rng) for k in rng.integers(-8, 3, size=10)]
        by_vector = [project_covariant_tp_psd(j, sys_in, sys_out) for j in js]
        assert 1 not in eigh_sizes
        monkeypatch.setitem(sec.__dict__, "blocks", (tr_e, via_eigh))
        by_eigh = [project_covariant_tp_psd(j, sys_in, sys_out) for j in js]
        assert 1 in eigh_sizes
        for a, b in zip(by_vector, by_eigh):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad, rng):
        # a NaN or Inf entry used to come back as an all-NaN matrix.  numpy
        # warns on the inf * 0 of the basis change; the contract is the raise.
        for sys_in, sys_out in [(QUBIT, QUBIT), (QUBIT, integer_system((0, 1, 2), rng))]:
            j = random_covariant_channel(sys_in, sys_out, rng).choi.copy()
            j[0, 1] = bad
            with np.errstate(invalid="ignore"), pytest.raises(NonFinite):
                project_covariant_tp_psd(j, sys_in, sys_out)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        spec_in=st.lists(st.integers(-2, 2), min_size=1, max_size=3),
        spec_out=st.lists(st.integers(-2, 2), min_size=1, max_size=3),
        scale=st.sampled_from([0.0, 0.1, 1.0, 5.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    # Largest entry about 16: a Newton stop proportional to it left a TP
    # residual of 1.1e-12.
    @example(spec_in=[0], spec_out=[0, 0, 0], scale=5.0, seed=3245129469)
    def test_property_small_dimensions(self, spec_in, spec_out, scale, seed):
        rng = np.random.default_rng(seed)
        sys_in = integer_system(spec_in, rng)
        sys_out = integer_system(spec_out, rng)
        d = sys_in.dim * sys_out.dim
        c = random_covariant_channel(sys_in, sys_out, rng).choi
        j = c + scale * _random_hermitian(d, rng)
        out = _check_projection(j, sys_in, sys_out, rng, n_witnesses=3)
        assert max_abs(project_covariant_tp_psd(out, sys_in, sys_out) - out) <= 1e-10


Ascent = namedtuple("Ascent", "penalty projections steps max_iter")


def _count_ascents(monkeypatch):
    """Wrap the ascent and the projection; returns the list of Ascent
    records, one per call: penalty is True for an ascent without a gap
    function, projections counts the calls it made, steps is its trace
    length (the start plus each accepted step).
    """
    ascents, projections = [], [0]
    project, ascend = optimize.project_covariant_tp_psd, optimize._ascend

    def counting_project(*args):
        projections[0] += 1
        return project(*args)

    def counting_ascend(j0, evaluate, in_sys, out_sys, max_iter, gap=None, ceiling=math.inf):
        before = projections[0]
        result = ascend(j0, evaluate, in_sys, out_sys, max_iter, gap, ceiling)
        ascents.append(Ascent(gap is None, projections[0] - before, len(result[1]), max_iter))
        return result

    monkeypatch.setattr(optimize, "project_covariant_tp_psd", counting_project)
    monkeypatch.setattr(optimize, "_ascend", counting_ascend)
    return ascents


class TestAscentStop:
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        dims=st.sampled_from([(2, 2), (2, 4), (3, 2)]),
        log_s1=st.floats(-8.0, 1.0),
        ratio=st.floats(0.0, 1.0, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_projected_step_distance_nondecreasing(self, dims, log_s1, ratio, seed):
        # ||P(J + s G) - J|| is nondecreasing in s for covariant J, so the
        # ascent may stop its ladder at the first candidate that stays at J
        rng = np.random.default_rng(seed)
        sys_in = random_integer_system(dims[0], rng)
        sys_out = random_integer_system(dims[1], rng)
        j = random_covariant_channel(sys_in, sys_out, rng).choi
        g = _random_hermitian(j.shape[0], rng)
        s1 = 10.0**log_s1
        s2 = ratio * s1

        def moved(step):
            return np.linalg.norm(project_covariant_tp_psd(j + step * g, sys_in, sys_out) - j)

        assert moved(s2) <= moved(s1) + 1e-12

    def test_fixed_point_ladder_projects_one_candidate(self, monkeypatch):
        # at lambda = 0 the keep-and-prepare start is a fixed point of the
        # projected step (its gradient is normal to the TP constraint), so
        # its first candidate stays at J and ends the ascent
        ascents = _count_ascents(monkeypatch)
        optimize_broadcast(PLUS, QUBIT, QUBIT, math.pi / 2, (0.0,), OptimizerConfig(max_iter=60))
        # the first ascent starts at keep-and-prepare: the start's own
        # projection, one candidate, and no accepted step
        assert (ascents[0].projections, ascents[0].steps) == (2, 1)


    def test_zero_gradient_projects_only_the_start(self, monkeypatch):
        # every candidate P(J + s 0) is J: the ascent stops before its ladder
        ascents = _count_ascents(monkeypatch)
        j = choi_from_map(lambda m: m, 2, 2)
        zero = np.zeros_like(j)
        j_out, trace, width = optimize._ascend(
            j, lambda x: (0.5, lambda: zero), QUBIT, QUBIT, OptimizerConfig.max_iter
        )
        assert (ascents[0].projections, trace, width) == (1, [(0, 0.5)], math.inf)
        assert max_abs(j_out - j) <= 1e-15


class TestShrinkFactor:
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        pred=st.floats(0.0, allow_nan=False, allow_infinity=False),
        drop=st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
    )
    def test_factor_within_clip(self, pred, drop):
        assert 0.2 <= optimize._shrink_factor(pred, drop) <= 0.5

    @pytest.mark.parametrize(
        "pred, drop", [(1.0, math.nan), (math.nan, -1.0), (0.0, 0.0), (0.1, 0.3)]
    )
    def test_no_peak_halves(self, pred, drop):
        assert optimize._shrink_factor(pred, drop) == 0.5

    def test_nan_candidates_get_the_halving_ladder(self, monkeypatch):
        # a candidate whose objective is NaN is rejected, and the step halves
        steps = []
        j = choi_from_map(lambda m: m, 2, 2)
        grad = choi_from_map(lambda m: np.trace(m) * np.eye(2) / 2, 2, 2) - j
        project = optimize.project_covariant_tp_psd

        def recording_project(x, *args):
            steps.append(max_abs(x - j) / max_abs(grad))
            return project(x, *args)

        values = iter([0.0])
        monkeypatch.setattr(optimize, "project_covariant_tp_psd", recording_project)

        def evaluate(x):
            return next(values, math.nan), lambda: grad

        optimize._ascend(j, evaluate, QUBIT, QUBIT, OptimizerConfig.max_iter)
        # the start, then the 40 candidates of one ladder; the ascent steps
        # from P(J), which is J to roundoff
        assert len(steps) == 41
        assert np.allclose(steps[1:], 0.5 ** np.arange(40), rtol=0, atol=1e-15)

    def test_first_shrink_lands_on_interior_maximiser(self, monkeypatch):
        # f(X) = -(k/2) ||X - J*||^2 with J* inside the covariant-TP-PSD set.
        # From J the unit step overshoots J* by a factor k = 3, every
        # candidate stays inside the set, and the quadratic model is exact.
        ascents = _count_ascents(monkeypatch)
        k = 3.0
        depolarize = choi_from_map(lambda m: np.trace(m) * np.eye(2) / 2, 2, 2)
        target = depolarize + 0.1 * (choi_from_map(lambda m: m, 2, 2) - depolarize)

        def evaluate(x):
            return -0.5 * k * np.linalg.norm(x - target) ** 2, lambda: k * (target - x)

        j_out, trace, _ = optimize._ascend(depolarize, evaluate, QUBIT, QUBIT, 1)
        # the start, the rejected unit step, and the step to J*
        assert (ascents[0].projections, len(trace)) == (3, 2)
        assert max_abs(j_out - target) <= 1e-12


class TestFidelityGradient:
    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            rho = random_density_matrix(d, d, rng)
            x = random_density_matrix(d, d, rng)
            g = fidelity_gradient(rho.mat, x.mat)
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
        g = fidelity_gradient(rho.mat, x.mat)
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
        g = fidelity_gradient(rho.mat, rho.mat)
        direction = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        direction = (direction + direction.conj().T) / 2
        direction -= np.trace(direction) * np.eye(3) / 3
        assert abs(float(np.trace(g @ direction).real)) < 1e-6

    def test_two_eigendecompositions(self, rng, monkeypatch):
        # rho and its compression M = B^dag X B, each decomposed once
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k)
            )
        x = random_density_matrix(3, 3, rng).mat
        for rank in (3, 1):
            rho = random_density_matrix(3, rank, rng).mat
            calls.clear()
            fidelity_gradient(rho, x)
            assert len(calls) == 2

    @settings(max_examples=200, deadline=None, database=None)
    @given(d=st.integers(1, 3), rank=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_finite_differences_on_rank_deficient_targets(self, d, rank, seed):
        # X is positive definite with trace 1/2, so Fid(rho, X +- h D) stays
        # clear of fidelity_arrays' clamp at 1 and of the PSD check.
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(d, min(rank, d), rng).mat
        x = 0.25 * (random_density_matrix(d, d, rng).mat + np.eye(d) / d)
        g = fidelity_gradient(rho, x)
        h = 1e-5
        for _ in range(3):
            direction = _random_hermitian(d, rng)
            direction /= np.linalg.norm(direction)
            fd = (
                fidelity_arrays(rho, x + h * direction) - fidelity_arrays(rho, x - h * direction)
            ) / (2 * h)
            an = float(np.trace(g @ direction).real)
            # relative to the largest derivative along a unit direction
            assert abs(fd - an) <= 1e-6 * np.linalg.norm(g)

    @settings(max_examples=100, deadline=None, database=None)
    @given(d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_pure_target_closed_form(self, d, seed):
        # Fid(psi psi^dag, X) = sqrt(<psi|X|psi>), whose gradient is
        # psi psi^dag / (2 sqrt(<psi|X|psi>))
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        x = random_density_matrix(d, d, rng).mat
        expect = np.outer(psi, psi.conj()) / (2 * math.sqrt(np.vdot(psi, x @ psi).real))
        g = fidelity_gradient(np.outer(psi, psi.conj()), x)
        assert max_abs(g - expect) <= 1e-14 * max_abs(expect)

    def test_orthogonal_target_is_singular(self):
        with pytest.raises(SingularTarget):
            fidelity_gradient(ZERO.mat, ONE.mat)

    def test_negative_target_eigenvalue_is_not_psd(self):
        with pytest.raises(NotPSD):
            fidelity_gradient(np.diag([1.0 + 1e-6, -1e-6]).astype(complex), HALF.mat)

    def test_rank_one_target_logs_nothing(self, caplog):
        with caplog.at_level(logging.DEBUG):
            fidelity_gradient(PLUS.mat, HALF.mat)
        assert caplog.records == []


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

    def test_converged_is_the_gap_verdict(self):
        res = max_recovery_fidelity(PLUS, HALF, QUBIT, QUBIT)
        edge = optimize._GAP_TOL + optimize._GAP_ROUNDOFF
        assert replace(res, gap=edge).converged
        assert not replace(res, gap=math.nextafter(edge, math.inf)).converged

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

    def test_pinned_tradeoff_debt_row(self):
        # The identity start stalls here at a gap of 3.8e-7 after 2,000
        # steps: the optimum is a diagonal phase unitary, and the gradient
        # along it is of order |sigma01| = 4.4e-7.  The closed-form start
        # certifies at once, at its irrev 1 - (1/2 + |sigma01|).
        psi, sigma, max_iter = _pinned_debt_row()
        res = max_recovery_fidelity(psi, sigma, QUBIT, QUBIT, max_iter)
        assert res.converged
        assert abs(res.value - 0.49999956318487349) <= 1e-12
        assert res.irrev_lower <= res.value

    @pytest.mark.parametrize("pair", ["pinned", "qutrit", "qutrit_to_qubit", "no_embedding"])
    def test_recovery_draws_no_random_number(self, monkeypatch, pair):
        # F is concave and the gap bounds its global maximum from any start,
        # so the recovery has one deterministic start, and each pair
        # certifies from it.  The last two have no embedding and start at
        # the replacement channel.
        def no_draw(*args):
            raise AssertionError("the recovery drew a random start")

        monkeypatch.setattr(optimize, "random_covariant_channel", no_draw)
        if pair == "pinned":
            psi, sigma, max_iter = _pinned_debt_row()
            sys_in = sys_out = QUBIT
        elif pair == "qutrit":
            sys_in, psi, _, sigma = _recovery_pair(5, 3, True)
            sys_out, max_iter = sys_in, OptimizerConfig.max_iter
        elif pair == "qutrit_to_qubit":
            psi, sigma, sys_in, sys_out = PLUS, QUTRIT_UNIFORM, QUTRIT, QUBIT
            max_iter = SHORT
        else:
            psi, sigma, sys_in, sys_out = PLUS, HALF, SystemSpec.diagonal([0, 2]), QUBIT
            max_iter = SHORT
        res = max_recovery_fidelity(psi, sigma, sys_in, sys_out, max_iter)
        assert res.gap <= optimize._GAP_TOL

    def test_recovery_channel_is_covariant(self):
        res = max_recovery_fidelity(PLUS, HALF, QUBIT, QUBIT)
        assert is_covariant_channel(res.best_recovery).ok

    def test_channel_applied_once_per_evaluated_candidate(self, monkeypatch):
        # the objective's fidelity and the gradient at an accepted J share
        # one application of the channel to sigma
        applied, evaluated = [], []
        apply_choi, fid = optimize.apply_choi, optimize.fidelity_arrays

        def counting_apply(*args):
            applied.append(1)
            return apply_choi(*args)

        def counting_fid(*args):
            evaluated.append(1)
            return fid(*args)

        monkeypatch.setattr(optimize, "apply_choi", counting_apply)
        monkeypatch.setattr(optimize, "fidelity_arrays", counting_fid)
        system, rho, _, sigma = _recovery_pair(3, 3, False)
        res = max_recovery_fidelity(rho, sigma, system, system, SHORT)
        assert len(res.fidelity_trace) > 2
        assert len(applied) == len(evaluated)


def _pinned_debt_row():
    """(psi, sigma_Q, max_iter) of the seed-7 default tradeoff row at
    t = 3pi/4, lambda = 0, pinned as exact floats."""
    text = (DATA / "tradeoff_debt_row.json").read_text()
    pinned = json.loads(text)
    psi = DensityMatrix(matrix_from_json(pinned["psi"]))
    sigma = DensityMatrix(matrix_from_json(pinned["sigma_q"]))
    assert matrix_to_json(psi.mat) == pinned["psi"]
    assert matrix_to_json(sigma.mat) == pinned["sigma_q"]
    assert json.dumps(pinned, indent=2) + "\n" == text
    return psi, sigma, pinned["optimizer"]["max_iter"]


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
# steps to certify, so the properties run short ascents (max_iter).
SHORT = 30


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
            assert is_covariant_channel(p).ok

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
            assert is_covariant_channel(att.map).ok

    def test_restarts_draw_random_starts(self, monkeypatch):
        # optimizer.restarts random covariant starts at the first penalty,
        # drawn in turn from one generator, so the first draw never moves.
        # A start is drawn only when it is reached: on a qubit pair the
        # move-and-refill start sits at the ceiling, and none is drawn.
        drawn = []

        def counting(sys_in, sys_out, rng):
            ch = random_covariant_channel(sys_in, sys_out, rng)
            drawn.append(ch.choi)
            return ch

        monkeypatch.setattr(optimize, "random_covariant_channel", counting)
        cfg = OptimizerConfig(max_iter=20, restarts=2, seed=3)
        optimize_broadcast(PLUS, QUBIT, QUBIT, math.pi / 2, (0.0, 16.0), cfg)
        assert drawn == []
        # a qutrit Q of spectrum (0, 1, 2) has no embedding in a qubit S'
        for restarts in (1, 2):
            cfg = OptimizerConfig(max_iter=20, restarts=restarts, seed=3)
            optimize_broadcast(QUTRIT_UNIFORM, QUTRIT, QUBIT, math.pi / 2, (0.0, 16.0), cfg)
        assert len(drawn) == 3
        assert np.array_equal(drawn[0], drawn[1])
        assert not np.allclose(drawn[1], drawn[2])

    def test_random_start_moves_coherence_without_embedding(self):
        # No shift of Q's spectrum (0, 1, 2) fits in a qubit S', so there is
        # no move-and-refill start, and keep-and-prepare alone moves nothing.
        # Only a random start reaches a point that moves coherence to S'.
        runs = {
            restarts: optimize_broadcast(
                QUTRIT_UNIFORM,
                QUTRIT,
                QUBIT,
                math.pi / 2,
                (0.0,),
                OptimizerConfig(max_iter=200, restarts=restarts, seed=7),
            )[0]
            for restarts in (0, 1)
        }
        assert runs[0].output_coherence <= 1e-12
        # it measures 0.2546
        assert runs[1].output_coherence > 0.1

    def test_gradient_matches_finite_differences(self, rng, monkeypatch):
        # the penalty objective's gradient closure at a random covariant
        # interior point, against central differences of its value
        objectives = []

        def capture(j0, evaluate, in_sys, out_sys, max_iter, gap=None, ceiling=math.inf):
            objectives.append(evaluate)
            return j0, [(0, 0.0)], math.inf

        monkeypatch.setattr(optimize, "_ascend", capture)
        rho = random_density_matrix(2, 2, rng)
        optimize_broadcast(rho, QUBIT, QUBIT, 1.0, (4.0,), OptimizerConfig(restarts=0))
        evaluate = objectives[0]
        j = random_covariant_channel(QUBIT, tensor_system(QUBIT, QUBIT), rng).choi
        grad = evaluate(j)[1]()
        h = 1e-5
        for _ in range(5):
            direction = _random_hermitian(8, rng)
            direction /= np.linalg.norm(direction)
            fd = (evaluate(j + h * direction)[0] - evaluate(j - h * direction)[0]) / (2 * h)
            an = float(np.vdot(grad, direction).real)
            assert abs(fd - an) <= 1e-6 * max(1.0, abs(fd))

    def test_attempts_are_covariant_channels(self):
        attempts = optimize_broadcast(
            PLUS, QUBIT, QUBIT, math.pi / 2, (0.0, 1.0), OptimizerConfig(max_iter=60)
        )
        for att in attempts:
            assert is_covariant_channel(att.map).ok

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
                recovered = apply_choi(rec.choi, sig_q)
                fid = fidelity_arrays(PLUS.mat, recovered)
                lhs = (1 - ft_in) * att.output_coherence
                rhs = 4 * math.sqrt(max(0.0, 1 - fid * fid))
                worst = max(worst, lhs - rhs)
        assert worst <= 1e-9


class TestBroadcastCeiling:
    @settings(max_examples=100, deadline=None, database=None)
    @given(
        sys_sp=st.sampled_from([QUBIT, SystemSpec.diagonal([0, 1, 2])]),
        rank=st.sampled_from([1, 2]),
        t=st.floats(0.0, 2 * math.pi, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_broadcast_output_within_input_coherence(self, sys_sp, rank, t, seed):
        # f_t cannot increase under the covariant channel rho_Q -> sigma_S',
        # so f_t(rho_Q) bounds every broadcast objective
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(2, rank, rng)
        out_sys = tensor_system(QUBIT, sys_sp)
        choi = random_covariant_channel(QUBIT, out_sys, rng).choi
        joint = apply_choi(choi, rho.mat)
        sig_sp = partial_trace((joint + joint.conj().T) / 2, [2, sys_sp.dim], keep=[1])
        assert measure_ft(DensityMatrix(sig_sp), sys_sp, t) <= measure_ft(rho, QUBIT, t) + 1e-12

    def test_qutrit_move_reaches_the_ceiling(self):
        # The no_broadcast_qutrit golden config: a qubit Q embeds in the
        # levels (0, 1) of a qutrit S', so move-and-refill moves all of
        # f_t(psi) at lambda = 0.
        cfg = OptimizerConfig(max_iter=20, restarts=1, seed=7)
        attempts = optimize_broadcast(PLUS, QUBIT, QUTRIT, math.pi / 2, (0.0, 16.0), cfg)
        ceiling = measure_ft(PLUS, QUBIT, math.pi / 2)
        assert abs(attempts[0].output_coherence - ceiling) <= 1e-12

    def test_first_penalty_stops_at_the_ceiling(self, monkeypatch):
        # At lambda = 0 the move-and-refill start attains f_t(rho_Q): its
        # ascent ends at its start, and the random start is not ascended.
        ascents = _count_ascents(monkeypatch)
        cfg = OptimizerConfig(restarts=1)
        attempts = optimize_broadcast(PLUS, QUBIT, QUBIT, math.pi / 2, (0.0, 16.0), cfg)
        # keep-and-prepare (its start and one fixed-point candidate), then
        # move-and-refill (its start only), then the two lambda = 16 ascents
        assert [(a.projections, a.steps) for a in ascents] == [(2, 1), (1, 1), (6, 6), (2, 1)]
        # without the ceiling the random start is ascended too, and the
        # attempts are the same
        ascents.clear()
        monkeypatch.setattr(optimize, "measure_ft", lambda *args: math.inf)
        uncapped = optimize_broadcast(PLUS, QUBIT, QUBIT, math.pi / 2, (0.0, 16.0), cfg)
        assert [(a.projections, a.steps) for a in ascents] == [
            (2, 1), (2, 1), (9, 9), (6, 6), (2, 1)
        ]
        for att, ref in zip(attempts, uncapped):
            assert np.array_equal(att.map.choi, ref.map.choi)


def _shifts_that_fit(spec_in, spec_out):
    """Every integer s with the multiset {q + s} inside spec_out, by brute force."""
    span = max(map(abs, spec_in)) + max(map(abs, spec_out))
    return [
        s
        for s in range(-span, span + 1)
        if not Counter(q + s for q in spec_in) - Counter(spec_out)
    ]


class TestEmbedding:
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        d_in=st.integers(1, 4), d_out=st.integers(1, 4), seed=st.integers(0, 2**32 - 1)
    )
    def test_embedding_is_a_covariant_isometry(self, d_in, d_out, seed):
        # iota maps Q's eigenvectors onto S' eigenvectors shifted by the s of
        # least |s|, so the move-and-refill start through it is covariant;
        # without such an s there is no iota
        rng = np.random.default_rng(seed)
        sys_in = random_integer_system(d_in, rng)
        sys_out = random_integer_system(d_out, rng)
        iota = optimize._embedding(sys_in, sys_out)
        shifts = _shifts_that_fit(sys_in.spectrum, sys_out.spectrum)
        if iota is None:
            assert shifts == []
            return
        s = min(shifts, key=lambda s: (abs(s), s))
        assert max_abs(iota.conj().T @ iota - np.eye(d_in)) <= 1e-12
        shifted = sys_in.hamiltonian + s * np.eye(d_in)
        assert max_abs(sys_out.hamiltonian @ iota - iota @ shifted) <= 1e-12
        out_sys = tensor_system(sys_in, sys_out)
        move = choi_from_map(
            lambda m: tensor_product(np.eye(d_in) / d_in, iota @ m @ iota.conj().T),
            d_in,
            out_sys.dim,
        )
        assert is_covariant_channel(Channel(sys_in, out_sys, move)).witness <= 1e-12


def _closed_form_check(rho, sigma, sys_in, sys_out):
    """The closed-form Choi matrix, checked PSD, TP and covariant to 1e-12,
    and its F^2."""
    iota = optimize._embedding(sys_in, sys_out)
    j = optimize._pure_qubit_recovery(rho, sigma, sys_in, sys_out, iota)
    assert np.linalg.eigvalsh(j)[0] >= -1e-12
    assert max_abs(partial_trace(j, [2, 2], keep=[1]) - np.eye(2)) <= 1e-12
    assert is_covariant_channel(Channel(sys_in, sys_out, j)).witness <= 1e-12
    return j, fidelity_arrays(rho.mat, apply_choi(j, sigma.mat)) ** 2


def _exactly_trace_preserving(j):
    """A qubit Choi matrix J rescaled on its input to Tr_out J = I.

    The congruence keeps J PSD, and keeps it covariant, since Tr_out J
    commutes with the input's phases whenever J is covariant."""
    w, v = np.linalg.eigh(partial_trace(j, [2, 2], keep=[1]))
    x = np.kron(np.eye(2), (v / np.sqrt(w)) @ v.conj().T)
    return x @ j @ x


class TestPureQubitRecovery:
    # The ascent's J is trace preserving only to its Newton tolerance
    # (residual up to about 1e-12), and its F^2 can pass the optimum by as
    # much.  Rescaled to exact trace preservation it is a covariant channel
    # to roundoff, which the optimum bounds, so 1e-12 covers roundoff
    # alone.  The examples are derandomized so that tier-1 runs the same
    # ones every time.
    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(
        level=st.integers(-2, 2),
        gap=st.sampled_from([-2, -1, 1, 2]),
        shift=st.sampled_from([-2, -1, 1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_closed_form_is_the_optimum(self, level, gap, shift, seed):
        # A pure psi and a sigma, in random eigenbases, with an output
        # spectrum shifted by s != 0: the closed form is a covariant
        # channel, and no ascent from the embedding beats it.
        rng = np.random.default_rng(seed)
        sys_in = integer_system([level, level + gap], rng)
        sys_out = integer_system([level + shift, level + gap + shift], rng)
        rho = DensityMatrix.pure(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        sigma = random_density_matrix(2, 2, rng)
        _, f2 = _closed_form_check(rho, sigma, sys_in, sys_out)
        with patch.object(optimize, "_pure_qubit_recovery", lambda *args: None):
            res = max_recovery_fidelity(rho, sigma, sys_in, sys_out)
        j = _exactly_trace_preserving(res.best_recovery.choi)
        assert f2 >= fidelity_arrays(rho.mat, apply_choi(j, sigma.mat)) ** 2 - 1e-12

    @pytest.mark.parametrize(
        "rho, sigma, channel",
        [
            # k = 0 and |a| = |b|: the warm-up pair, where nothing beats the identity
            (PLUS, HALF, np.eye(2)),
            # |a| = |b| with coherence: the phase unitary that turns sigma01 onto psi's
            (PLUS, DensityMatrix(np.array([[0.5, 0.25j], [-0.25j, 0.5]])), None),
            # sigma00 = 0 (so k = 0): prepare |0>, psi's larger weight
            (DensityMatrix.pure([0.8, 0.6]), ONE, None),
        ],
        ids=["warmup", "phase_unitary", "sigma00_zero"],
    )
    def test_edge_cases(self, rho, sigma, channel):
        j, f2 = _closed_form_check(rho, sigma, QUBIT, QUBIT)
        if channel is not None:
            assert max_abs(j - choi_from_map(lambda m: channel @ m, 2, 2)) <= 1e-15
        assert f2 >= fidelity_arrays(rho.mat, sigma.mat) ** 2 - 1e-15
        res = max_recovery_fidelity(rho, sigma, QUBIT, QUBIT)
        assert res.converged and abs(res.fidelity**2 - f2) <= 1e-12

    @pytest.mark.parametrize(
        "rho, sys_in, sys_out",
        [
            # rank two
            (HALF, QUBIT, QUBIT),
            (DensityMatrix(np.diag([0.75, 0.25])), QUBIT, QUBIT),
            # degenerate spectrum: every channel is covariant
            (PLUS, SystemSpec.diagonal([0, 0]), SystemSpec.diagonal([0, 0])),
            # no embedding, and no qubit output
            (PLUS, QUBIT, SystemSpec.diagonal([0, 2])),
            (QUTRIT_UNIFORM, QUTRIT, QUTRIT),
        ],
        ids=["half", "rank_two", "degenerate", "no_embedding", "qutrit"],
    )
    def test_outside_the_closed_form(self, rho, sys_in, sys_out):
        sigma = HALF if sys_in.dim == 2 else DensityMatrix.maximally_mixed(3)
        iota = optimize._embedding(sys_in, sys_out)
        assert optimize._pure_qubit_recovery(rho, sigma, sys_in, sys_out, iota) is None
        max_recovery_fidelity(rho, sigma, sys_in, sys_out, SHORT)


def _frontier_state(seed):
    """The frontier workload's state at this seed, built as the tradeoff
    runner builds it (the projector of the top eigenvector)."""
    phase = np.random.default_rng([seed, 1]).uniform(0.0, 2 * math.pi)
    psi = np.array([1.0, np.exp(1j * phase)]) / math.sqrt(2)
    v = np.linalg.eigh(np.outer(psi, psi.conj()))[1][:, -1]
    return DensityMatrix(np.outer(v, v.conj()))


class TestBroadcastAscentWork:
    @pytest.mark.parametrize("seed", [1001, 3108])
    def test_frontier_ascent_does_not_crawl(self, monkeypatch, seed):
        # The crawl depends on the state's last bits.  A penalty ascent on
        # the smoothing floor (objective about -2 lam 1e-6) rises of order
        # 1e-11 per step; measured against |objective| alone that rise never
        # stops the lambda = 16 ascent, which then runs 200 steps and about
        # 370 projections.
        ascents = _count_ascents(monkeypatch)
        run_tradeoff_sweep(
            _frontier_state(seed),
            QUBIT,
            QUBIT,
            t_grid=[3 * math.pi / 4],
            lambda_schedule=[0.0, 16.0],
        )
        penalty = [a for a in ascents if a.penalty]
        assert penalty and all(a.steps <= a.max_iter for a in penalty)
        # 21 and 24 (30 and 33 without the f_t(rho_Q) ceiling, 45 and 88
        # with a halving ladder as well)
        assert sum(a.projections for a in ascents) <= 26

    def test_frontier_projection_count(self, monkeypatch):
        # The seed-7 frontier batch (the default t grid is the workload's)
        # makes 86 projections, and 144 without the f_t(rho_Q) ceiling.
        # The bound leaves 10% headroom.
        ascents = _count_ascents(monkeypatch)
        run_tradeoff_sweep(_frontier_state(7), QUBIT, QUBIT, lambda_schedule=[0.0, 16.0])
        assert sum(a.projections for a in ascents) <= 95

    def test_default_no_broadcast_projection_count(self, monkeypatch):
        # The seed-7 default no_broadcast run makes 51 projections (61
        # without the f_t(rho_Q) ceiling, 70 with a halving ladder as well).
        # A shrink clipped at 0.1 instead of 0.2 would make its warm
        # lambda = 1 ascent crawl, to 158 projections.
        ascents = _count_ascents(monkeypatch)
        cfg = OptimizerConfig(max_iter=200, seed=7)
        optimize_broadcast(PLUS, QUBIT, QUBIT, math.pi / 2, DEFAULT_LAMBDA_SCHEDULE, cfg)
        assert sum(a.projections for a in ascents) <= 56

    def test_qutrit_zero_gradient_ends_ascent(self, monkeypatch):
        # The no_broadcast_qutrit golden config.  Its lambda = 0 move-and-
        # refill start sits at the ceiling, so no random start is ascended;
        # it makes 10 projections.  Without a move start, the random-start
        # ascent reaches a zero gradient (a SingularTarget S' marginal) after
        # 45; test_zero_gradient_projects_only_the_start covers that stop.
        ascents = _count_ascents(monkeypatch)
        cfg = OptimizerConfig(max_iter=20, restarts=1, seed=7)
        optimize_broadcast(PLUS, QUBIT, QUTRIT, math.pi / 2, (0.0, 16.0), cfg)
        assert sum(a.projections for a in ascents) <= 11

    @settings(max_examples=10, deadline=None, database=None, derandomize=True)
    @given(phase=st.floats(0.0, 2 * math.pi, exclude_max=True))
    def test_sweep_ascents_end_before_max_iter(self, phase):
        # Every penalty ascent of the default sweep grid stops on its rise
        # test or its ladder, never on the step cap.
        with pytest.MonkeyPatch.context() as monkeypatch:
            ascents = _count_ascents(monkeypatch)
            run_tradeoff_sweep(
                DensityMatrix.pure([1.0, np.exp(1j * phase)]),
                QUBIT,
                QUBIT,
                lambda_schedule=[0.0, 16.0],
            )
        penalty = [a for a in ascents if a.penalty]
        assert penalty and all(a.steps <= a.max_iter for a in penalty)
