"""Numeric-core primitives against closed forms and independent oracles."""
import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymmbench.errors import (
    BadIndex,
    DimensionMismatch,
    NonFinite,
    NonHermitian,
    NotPSD,
    SizeCap,
)
from asymmbench.linalg import (
    factor_permutations,
    fidelity_arrays,
    hermitian_eig,
    hermitian_function,
    max_abs,
    partial_trace,
    psd_sqrt,
    symmetric_subspace_projector,
    tensor_product,
    trace_norm,
)
from asymmbench.qtypes import DensityMatrix, check_density, random_density_matrix
from asymmbench.tolerances import TOL_RANK, TOL_STRUCT

from conftest import random_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestHermitianEig:
    def test_diagonal_sorted_ascending(self):
        w, v = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1, 2, 3])
        assert max_abs(np.abs(v) - np.eye(3)[:, [1, 2, 0]]) < 1e-14

    def test_pauli_x_closed_form(self):
        w, v = hermitian_eig(SX)
        assert np.allclose(w, [-1, 1])
        # columns match (|0>-|1>)/sqrt(2), (|0>+|1>)/sqrt(2) up to phase
        for col, target in zip(v.T, [np.array([1, -1]) / np.sqrt(2), np.array([1, 1]) / np.sqrt(2)]):
            overlap = abs(np.vdot(col, target))
            assert abs(overlap - 1) < 1e-12

    def test_degenerate_identity_returns_unitary(self):
        w, v = hermitian_eig(np.eye(4))
        assert np.allclose(w, 1)
        assert max_abs(v @ v.conj().T - np.eye(4)) < 1e-12

    def test_reconstruction_bound_random(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 9))
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m = (m + m.conj().T) / 2
            w, v = hermitian_eig(m)
            recon = (v * w) @ v.conj().T
            assert max_abs(recon - m) <= 1e-10 * (1 + max_abs(m))
            assert max_abs(v @ v.conj().T - np.eye(d)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            hermitian_eig(np.array([[np.nan, 0], [0, 1.0]]))


class TestPsdSqrt:
    def test_identity(self):
        assert max_abs(psd_sqrt(np.eye(3)) - np.eye(3)) < 1e-14

    def test_diagonal(self):
        assert max_abs(psd_sqrt(np.diag([4.0, 9.0])) - np.diag([2.0, 3.0])) < 1e-14

    def test_pauli_mixture_closed_form(self):
        # sqrt of (I + c sx)/2 in the (I, sx) basis for c = 0.6
        c = 0.6
        m = 0.5 * (np.eye(2) + c * SX)
        a = (math.sqrt(0.8) + math.sqrt(0.2)) / 2
        b = (math.sqrt(0.8) - math.sqrt(0.2)) / 2
        assert max_abs(psd_sqrt(m) - (a * np.eye(2) + b * SX)) < 1e-12

    def test_square_recovers_input(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 7))
            rho = random_density_matrix(d, int(rng.integers(1, d + 1)), rng).mat
            root = psd_sqrt(rho)
            assert max_abs(root @ root - rho) <= 1e-9 * (1 + max_abs(rho))

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_tolerance_scales_with_the_largest_eigenvalue(self):
        # -5e-7 is within TOL_STRUCT of a matrix whose largest eigenvalue is
        # 1e3, but not of one whose largest eigenvalue is 1
        big, u = spectral_matrix([-5e-7, 1e3], 1)
        small, _ = spectral_matrix([-5e-7, 1.0], 2)
        top = np.outer(u[:, 1], u[:, 1].conj())
        assert max_abs(psd_sqrt(big) - math.sqrt(1e3) * top) < 1e-12
        with pytest.raises(NotPSD):
            psd_sqrt(small)


def spectral_matrix(spectrum, seed):
    """U diag(spectrum) U† in a random eigenbasis, with that basis."""
    u = random_unitary(len(spectrum), np.random.default_rng(seed))
    m = (u * np.asarray(spectrum, dtype=float)) @ u.conj().T
    return (m + m.conj().T) / 2, u


SEEDS = st.integers(0, 2**32 - 1)
UNIT = st.floats(0.0, 1.0)


class TestHermitianFunction:
    @settings(max_examples=60, deadline=None, database=None)
    @given(spectrum=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=5), seed=SEEDS)
    def test_identity_reconstructs(self, spectrum, seed):
        m, _ = spectral_matrix(spectrum, seed)
        assert max_abs(hermitian_function(m, lambda w: w) - m) <= 1e-13 * (1 + max_abs(m))

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        spectrum=st.lists(UNIT, min_size=1, max_size=5),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=SEEDS,
    )
    def test_psd_sqrt_squares_back(self, spectrum, scale, seed):
        m, _ = spectral_matrix(scale * np.asarray(spectrum), seed)
        root = psd_sqrt(m)
        assert max_abs(root @ root - m) <= 1e-9 * (1 + max_abs(m))

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        support=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
        kernel=st.integers(0, 3),
        seed=SEEDS,
    )
    def test_inverse_root_sandwich_is_support_projector(self, support, kernel, seed):
        m, u = spectral_matrix([0.0] * kernel + support, seed)
        seen = []

        def inv_sqrt(w):
            seen.append(w)
            return 1.0 / np.sqrt(w)

        r = hermitian_function(m, inv_sqrt, TOL_RANK)
        projector = u[:, kernel:] @ u[:, kernel:].conj().T
        assert max_abs(r @ m @ r - projector) <= 1e-9
        assert len(seen) == 1 and len(seen[0]) == len(support)
        assert np.all(seen[0] >= TOL_RANK)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        negative=st.floats(1e-6, 1.0),
        rest=st.lists(UNIT, min_size=0, max_size=4),
        seed=SEEDS,
    )
    def test_negative_eigenvalue_raises(self, negative, rest, seed):
        assert negative > 2 * TOL_STRUCT  # 1 + the largest eigenvalue is at most 2
        m, _ = spectral_matrix([-negative] + rest, seed)
        with pytest.raises(NotPSD):
            hermitian_function(m, np.sqrt, TOL_RANK)

    @settings(max_examples=30, deadline=None, database=None)
    @given(
        spectrum=st.lists(UNIT, min_size=1, max_size=4),
        cutoff=st.sampled_from([None, TOL_RANK]),
        seed=SEEDS,
    )
    def test_exception_from_f_propagates(self, spectrum, cutoff, seed):
        class Refused(Exception):
            pass

        def refuse(w):
            raise Refused

        m, _ = spectral_matrix(spectrum, seed)
        with pytest.raises(Refused):
            hermitian_function(m, refuse, cutoff)


class TestTraceNorm:
    def test_identity(self):
        assert abs(trace_norm(np.eye(3)) - 3) < 1e-12

    def test_hermitian_case(self):
        assert abs(trace_norm(np.diag([1.0, -2.0])) - 3) < 1e-12

    def test_nilpotent(self):
        assert abs(trace_norm(np.array([[0, 1], [0, 0]], dtype=complex)) - 1) < 1e-12

    def test_hermitian_matches_abs_eigenvalues(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 7))
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m = (m + m.conj().T) / 2
            assert abs(trace_norm(m) - np.sum(np.abs(np.linalg.eigvalsh(m)))) < 1e-9

    def test_rejects_nan(self):
        with pytest.raises(NonFinite):
            trace_norm(np.array([[np.inf, 0], [0, 1.0]]))


class TestFidelity:
    def test_self_fidelity(self, rng):
        rho = random_density_matrix(3, 3, rng)
        assert abs(fidelity_arrays(rho.mat, rho.mat) - 1) < 1e-9

    def test_pure_overlap(self):
        zero = DensityMatrix.pure([1, 0])
        plus = DensityMatrix.pure([1, 1])
        assert abs(fidelity_arrays(zero.mat, plus.mat) - 1 / math.sqrt(2)) < 1e-12

    def test_pure_vs_mixed(self):
        zero = DensityMatrix.pure([1, 0])
        mixed = DensityMatrix.maximally_mixed(2)
        assert abs(fidelity_arrays(zero.mat, mixed.mat) - 1 / math.sqrt(2)) < 1e-12

    def test_pure_equals_sqrt_expectation(self, rng):
        # fidelity with a pure state reduces to sqrt(<psi|b|psi>)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            psi /= np.linalg.norm(psi)
            b = random_density_matrix(d, d, rng)
            expect = math.sqrt(max(0.0, np.vdot(psi, b.mat @ psi).real))
            assert abs(fidelity_arrays(DensityMatrix.pure(psi).mat, b.mat) - expect) < 1e-9

    def test_symmetry_500_pairs(self, rng):
        for _ in range(500):
            d = int(rng.choice([2, 3, 4]))
            a = random_density_matrix(d, int(rng.integers(1, d + 1)), rng)
            b = random_density_matrix(d, int(rng.integers(1, d + 1)), rng)
            assert abs(fidelity_arrays(a.mat, b.mat) - fidelity_arrays(b.mat, a.mat)) < 1e-9

    def test_monotone_under_partial_trace(self, rng):
        for _ in range(500):
            a = random_density_matrix(4, int(rng.integers(1, 5)), rng)
            b = random_density_matrix(4, int(rng.integers(1, 5)), rng)
            fa = fidelity_arrays(
                partial_trace(a.mat, [2, 2], [0]), partial_trace(b.mat, [2, 2], [0])
            )
            assert fa >= fidelity_arrays(a.mat, b.mat) - 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity_arrays(
                DensityMatrix.maximally_mixed(2).mat, DensityMatrix.maximally_mixed(3).mat
            )


@st.composite
def psd_stacks(draw, min_size=1):
    """A stack of equal-size PSD matrices of mixed rank and scale.

    Kernel eigenvalues are exact zeros before the rotation, which leaves
    them at roundoff level of either sign.
    """
    d = draw(st.integers(1, 4))
    members = []
    for _ in range(draw(st.integers(min_size, 6))):
        rank = draw(st.integers(1, d))
        support = draw(st.lists(UNIT, min_size=rank, max_size=rank))
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        m, _ = spectral_matrix(scale * np.asarray([0.0] * (d - rank) + support), draw(SEEDS))
        members.append(m)
    return np.array(members)


class TestStacks:
    """trace_norm and check_density take a stack (..., d, d) member by member.

    The other spectral helpers take one matrix and refuse a stack.
    """

    @settings(max_examples=80, deadline=None, database=None)
    @given(stack=psd_stacks(min_size=2))
    def test_stacked_equals_per_matrix(self, stack):
        products = stack @ stack[::-1]
        norms = trace_norm(products)
        for i, m in enumerate(products):
            assert norms[i] == trace_norm(m)
        assert np.array_equal(trace_norm(products[None])[0], norms)
        states = stack + np.eye(stack.shape[-1])
        states /= states.trace(0, -2, -1)[:, None, None]
        check_density(states)
        for m in states:
            check_density(m)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        stack=psd_stacks(),
        where=st.integers(0, 5),
        negative=st.floats(1e-6, 1.0),
        seed=SEEDS,
    )
    def test_one_bad_member_raises(self, stack, where, negative, seed):
        i = where % len(stack)
        d = stack.shape[-1]
        bad = stack + np.eye(d)
        bad /= bad.trace(0, -2, -1)[:, None, None]
        check_density(bad)
        bad[i], _ = spectral_matrix([-negative] + [1.0] * (d - 1), seed)
        with pytest.raises(NotPSD):
            check_density(bad)
        bad = stack.copy()
        bad[i, 0, 0] = np.nan
        with pytest.raises(NonFinite):
            trace_norm(bad)

    def test_shape_errors(self):
        with pytest.raises(DimensionMismatch):
            trace_norm(np.zeros((3, 2, 3)))
        with pytest.raises(NonFinite):
            trace_norm(np.array([np.eye(2), np.full((2, 2), np.nan)]))
        # a stack of states is refused by every single-matrix helper
        stack = np.array([np.eye(2) / 2, np.diag([1.0, 0.0])])
        for fn in (hermitian_eig, psd_sqrt, lambda m: hermitian_function(m, np.abs)):
            with pytest.raises(DimensionMismatch):
                fn(stack)
        with pytest.raises(DimensionMismatch):
            fidelity_arrays(stack, stack)
        with pytest.raises(DimensionMismatch):
            fidelity_arrays(stack[0], stack[:1])


class TestPartialTrace:
    def test_bell_marginal(self):
        bell = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2
        assert max_abs(partial_trace(bell, [2, 2], [0]) - np.eye(2) / 2) < 1e-12

    def test_product_state(self, rng):
        rho = random_density_matrix(2, 2, rng).mat
        sigma = random_density_matrix(3, 3, rng).mat
        joint = tensor_product(rho, sigma)
        assert max_abs(partial_trace(joint, [2, 3], [0]) - rho) < 1e-12
        assert max_abs(partial_trace(joint, [2, 3], [1]) - sigma) < 1e-12

    def test_identity_six(self):
        assert max_abs(partial_trace(np.eye(6), [2, 3], [1]) - 2 * np.eye(3)) < 1e-12

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            partial_trace(np.eye(4), [2, 2], [])
        with pytest.raises(BadIndex):
            partial_trace(np.eye(4), [2, 2], [5])
        with pytest.raises(BadIndex):
            partial_trace(np.eye(4), [2, 2], [0, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(5), [2, 2], [0])
        # exactly two factors
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(8), [2, 2, 2], [0])
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(2), [2], [0])

    def test_stack_refused(self):
        # a stack whose leading size equals the total dimension used to get
        # past the size check and fail in the reshape with a bare ValueError
        with pytest.raises(DimensionMismatch):
            partial_trace(np.zeros((4, 4, 4)), [2, 2], [0])

    def test_repeated_calls_keep_every_check(self):
        # a call with the same dims as an earlier valid one is still
        # checked in full
        partial_trace(np.eye(4), [2, 2], [0])
        partial_trace(np.eye(6), [2, 3], [1])
        with pytest.raises(BadIndex):
            partial_trace(np.eye(4), [2, 2], [])
        with pytest.raises(BadIndex):
            partial_trace(np.eye(4), [2, 2], [2])
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(5), [2, 2], [0])
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(3), [2, 3], [1])
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4), [2, 2, 0], [0])
        assert max_abs(partial_trace(np.eye(4), [2, 2], [0]) - 2 * np.eye(2)) == 0.0


class TestTensorProduct:
    def test_identities(self):
        assert max_abs(tensor_product(np.eye(2), np.eye(2)) - np.eye(4)) < 1e-15

    def test_number_operator_sum(self):
        h = tensor_product(np.diag([0.0, 1.0]), np.eye(2)) + tensor_product(
            np.eye(2), np.diag([0.0, 1.0])
        )
        assert max_abs(h - np.diag([0.0, 1.0, 1.0, 2.0])) < 1e-15

    def test_flip_both(self):
        xx = tensor_product(SX, SX)
        v00 = np.array([1, 0, 0, 0], dtype=complex)
        assert max_abs(xx @ v00 - np.array([0, 0, 0, 1])) < 1e-15

    def test_mixed_product_rule(self, rng):
        a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4))
        lhs = tensor_product(a, b) @ tensor_product(c, d)
        rhs = tensor_product(a @ c, b @ d)
        assert max_abs(lhs - rhs) < 1e-12

    def test_same_products_as_kron(self, rng):
        # every square and non-square pair of shapes from 1x1 to 4x4
        shapes = [(r, c) for r in range(1, 5) for c in range(1, 5)]
        for sa in shapes:
            for sb in shapes:
                a = rng.standard_normal(sa) + 1j * rng.standard_normal(sa)
                b = rng.standard_normal(sb) + 1j * rng.standard_normal(sb)
                assert np.array_equal(tensor_product(a, b), np.kron(a, b))

    def test_real_input_matches_complex_kron(self, rng):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        out = tensor_product(a, b)
        assert out.dtype == np.complex128
        assert np.array_equal(out, np.kron(a.astype(np.complex128), b))

    def test_refuses_non_matrices_and_non_finite(self):
        with pytest.raises(DimensionMismatch):
            tensor_product(np.ones(2), np.eye(2))
        with pytest.raises(NonFinite):
            tensor_product(np.eye(2), np.full((2, 2), np.nan))


class TestSymmetricSubspace:
    def test_trace_qubit_pair(self):
        assert abs(np.trace(symmetric_subspace_projector(2, 2)).real - 3) < 1e-12

    def test_n_one_is_identity(self):
        assert max_abs(symmetric_subspace_projector(3, 1) - np.eye(3)) < 1e-15

    def test_idempotent_qubit_triple(self):
        p = symmetric_subspace_projector(2, 3)
        assert abs(np.trace(p).real - 4) < 1e-12
        assert max_abs(p @ p - p) < 1e-10

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (4, 2)])
    def test_projector_properties(self, d, n, rng):
        p = symmetric_subspace_projector(d, n)
        assert max_abs(p @ p - p) < 1e-10
        assert max_abs(p - p.conj().T) < 1e-12
        assert abs(np.trace(p).real - math.comb(d + n - 1, n)) < 1e-10
        # every factor permutation fixes the symmetric subspace: Pi P = P
        for target in factor_permutations(d, n):
            image = np.zeros_like(p)
            image[target] = p  # Pi sends basis vector i to target[i]
            assert max_abs(image - p) < 1e-12

    def test_commutes_with_collective_unitaries(self, rng):
        p = symmetric_subspace_projector(2, 3)
        worst = 0.0
        for _ in range(100):
            u = random_unitary(2, rng)
            uu = tensor_product(tensor_product(u, u), u)
            worst = max(worst, max_abs(uu @ p - p @ uu))
        assert worst < 1e-9

    def test_size_cap(self):
        with pytest.raises(SizeCap):
            symmetric_subspace_projector(2, 6)
        with pytest.raises(SizeCap):
            symmetric_subspace_projector(9, 5)


class TestFactorPermutations:
    @pytest.mark.parametrize("d", [2, 3])
    def test_maps_permute_product_factors(self, d, rng):
        vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(3)]
        product = np.kron(np.kron(vecs[0], vecs[1]), vecs[2])
        expected = {
            perm: np.kron(np.kron(vecs[perm[0]], vecs[perm[1]]), vecs[perm[2]])
            for perm in permutations(range(3))
        }
        matched = []
        for target in factor_permutations(d, 3):
            image = np.zeros_like(product)
            image[target] = product  # the operator sends basis vector i to target[i]
            matched += [p for p, want in expected.items() if max_abs(image - want) < 1e-12]
        # Distinct random factors make the six products distinct, so each map
        # must match exactly one of them and together they cover all six.
        assert sorted(matched) == sorted(expected)


class TestRandomDensityMatrix:
    def test_rank_one_is_pure(self, rng):
        rho = random_density_matrix(4, 1, rng)
        assert abs(np.trace(rho.mat @ rho.mat).real - 1) < 1e-12

    def test_full_rank_mean_near_maximally_mixed(self):
        # Monte Carlo oracle: the normalized Ginibre ensemble is unitarily
        # invariant, so the sample mean approaches I/d.
        rng = np.random.default_rng(5)
        acc = np.zeros((2, 2), dtype=complex)
        n = 10_000
        for _ in range(n):
            acc += random_density_matrix(2, 2, rng).mat
        mean = acc / n
        assert 0.5 * trace_norm(mean - np.eye(2) / 2) < 0.02

    def test_deterministic_given_seed(self):
        a = random_density_matrix(3, 2, np.random.default_rng(99)).mat
        b = random_density_matrix(3, 2, np.random.default_rng(99)).mat
        assert np.array_equal(a, b)

    def test_rank_bounds(self, rng):
        with pytest.raises(DimensionMismatch):
            random_density_matrix(2, 3, rng)
