"""Koashi-Imoto decomposition, algebra machinery, and structure checks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymmbench.errors import PreconditionFailed, SizeCap
from asymmbench.ki import (
    _modular_components,
    _support_restrict,
    ehrenfest_constancy_check,
    generate_algebra,
    ki_decompose,
    ki_refinement_oracle,
    lemma4_reduced_form_check,
    orbit_family,
    reconstruct_state,
    wedderburn_decompose,
)
from asymmbench.linalg import commutator, max_abs, tensor_product, trace_norm
from asymmbench.qtypes import (
    Channel,
    DensityMatrix,
    StateFamily,
    SystemSpec,
    choi_from_map,
    random_density_matrix,
    tensor_system,
)
from asymmbench.symmetry import is_symmetric_state

from conftest import planted_family, random_structured_family, random_unitary

QUBIT = SystemSpec.diagonal([0, 1])
PLUS = DensityMatrix.pure([1, 1])
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
# planted (m, k) block lists on at most six dimensions
PLANTED = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=4
).filter(lambda blocks: sum(m * k for m, k in blocks) <= 6)


class TestGenerateAlgebra:
    def test_identity_only(self):
        assert len(generate_algebra([np.eye(2, dtype=complex)])) == 1

    def test_single_nondegenerate_diagonal(self):
        assert len(generate_algebra([np.diag([1.0, 2.0]).astype(complex)])) == 2

    def test_pauli_pair_generates_full_matrix_algebra(self):
        assert len(generate_algebra([SX, SZ])) == 4

    def test_commuting_family(self):
        gens = [np.diag([1.0, 2.0, 3.0]).astype(complex)]
        basis = generate_algebra(gens)
        assert len(basis) == 3

    def test_tensor_multiplicity(self):
        gens = [tensor_product(SX, np.eye(2)), tensor_product(SZ, np.eye(2))]
        assert len(generate_algebra(gens)) == 4

    def test_output_orthonormal(self, rng):
        gens = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))]
        basis = generate_algebra(gens)
        gram = np.array([[np.sum(np.conj(a) * b) for b in basis] for a in basis])
        assert max_abs(gram - np.eye(len(basis))) < 1e-10


class TestWedderburn:
    def test_full_matrix_algebra(self):
        blocks = wedderburn_decompose(generate_algebra([SX, SZ]))
        assert [(b.m, b.k) for b in blocks] == [(2, 1)]

    def test_diagonal_algebra(self):
        blocks = wedderburn_decompose(
            generate_algebra([np.diag([1.0, 2.0, 3.0]).astype(complex)])
        )
        assert sorted((b.m, b.k) for b in blocks) == [(1, 1), (1, 1), (1, 1)]

    def test_multiplicity_two(self):
        gens = [tensor_product(SX, np.eye(2)), tensor_product(SZ, np.eye(2))]
        blocks = wedderburn_decompose(generate_algebra(gens))
        assert [(b.m, b.k) for b in blocks] == [(2, 2)]

    def test_factorization_exact(self, rng):
        gens = [tensor_product(SX, np.eye(2)), tensor_product(SZ, np.eye(2))]
        basis = generate_algebra(gens)
        blk = wedderburn_decompose(basis)[0]
        for b in basis:
            mat = (blk.isometry.conj().T @ b @ blk.isometry).reshape(2, 2, 2, 2)
            g_l = np.einsum("akbk->ab", mat) / 2
            assert max_abs(mat - np.einsum("ab,kl->akbl", g_l, np.eye(2))) < 1e-9

    def test_rejects_non_algebra(self, rng):
        # a random span is almost surely not closed under products
        bad = [np.eye(2, dtype=complex) / math.sqrt(2)]
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        v = v - np.trace(v) * np.eye(2) / 2
        bad.append(v / np.linalg.norm(v))
        with pytest.raises(PreconditionFailed):
            wedderburn_decompose(bad)


class TestKIDecompose:
    def test_single_full_rank_state(self, rng):
        rho = random_density_matrix(3, 3, rng)
        dec = ki_decompose(StateFamily((rho,), ("a",)))
        assert dec.block_dims == [(1, 3)]
        blk = dec.blocks[0]
        recon = blk.isometry @ blk.omega.mat @ blk.isometry.conj().T
        assert max_abs(recon - rho.mat) < 1e-10
        assert abs(dec.probs[0, 0] - 1) < 1e-10

    def test_commuting_pair(self):
        r1 = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        r2 = DensityMatrix(np.diag([0.2, 0.8]).astype(complex))
        dec = ki_decompose(StateFamily((r1, r2), ("a", "b")))
        assert dec.block_dims == [(1, 1), (1, 1)]
        # probabilities reproduce the joint diagonalization weights
        rows = {tuple(np.round(dec.probs[x], 9)) for x in range(2)}
        assert rows == {(0.7, 0.3), (0.2, 0.8)} or rows == {(0.3, 0.7), (0.8, 0.2)}

    def test_coherent_orbit(self):
        fam = orbit_family(PLUS, QUBIT, 4)
        dec = ki_decompose(fam)
        assert dec.block_dims == [(2, 1)]

    def test_commuting_family_weights(self, rng):
        # all blocks trivial on the left factor; the probability table
        # reproduces the joint diagonalization weights
        for _ in range(10):
            d = int(rng.integers(2, 6))
            u = random_unitary(d, rng)
            weights = [rng.dirichlet(np.ones(d)) for _ in range(3)]
            states = tuple(
                DensityMatrix(u @ np.diag(w.astype(complex)) @ u.conj().T)
                for w in weights
            )
            fam = StateFamily(states, ("a", "b", "c"))
            dec = ki_decompose(fam)
            assert all(m == 1 for m, _ in dec.block_dims)
            for x, w in enumerate(weights):
                # each block's probability equals the sum of the weights it carries
                recovered = sorted(float(p) for p in dec.probs[x] if p > 1e-12)
                direct = []
                for blk in dec.blocks:
                    direct.append(float(np.trace(blk.projector @ states[x].mat).real))
                assert np.allclose(sorted(direct), recovered, atol=1e-9)
                assert abs(sum(dec.probs[x]) - 1.0) < 1e-9

    def test_permutation_invariance(self, rng):
        fam, _ = random_structured_family(rng, 4)
        dec = ki_decompose(fam)
        reversed_fam = StateFamily(fam.states[::-1], fam.labels[::-1])
        dec_r = ki_decompose(reversed_fam)
        assert dec.block_dims == dec_r.block_dims
        # projectors match up to ordering
        for blk in dec.blocks:
            dists = [
                max_abs(blk.projector - other.projector) for other in dec_r.blocks
            ]
            assert min(dists) < 1e-7

    def test_unitary_equivariance(self, rng):
        for _ in range(50):
            fam, _ = random_structured_family(rng, 3)
            w = random_unitary(3, rng)
            rotated = StateFamily(
                tuple(DensityMatrix(w @ s.mat @ w.conj().T) for s in fam.states),
                fam.labels,
            )
            dec = ki_decompose(fam)
            dec_w = ki_decompose(rotated)
            assert dec.block_dims == dec_w.block_dims
            for blk in dec.blocks:
                target = w @ blk.projector @ w.conj().T
                dists = [max_abs(target - other.projector) for other in dec_w.blocks]
                assert min(dists) < 1e-7

    def test_reconstruction_residuals(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 7))
            fam, _ = random_structured_family(rng, d)
            dec = ki_decompose(fam)
            for x in range(len(fam.states)):
                dist = 0.5 * trace_norm(fam.states[x].mat - reconstruct_state(dec, x))
                assert dist <= 1e-7

    def test_oracle_agreement(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 7))
            fam, planted = random_structured_family(rng, d)
            dims = ki_decompose(fam).block_dims
            assert dims == planted
            assert dims == ki_refinement_oracle(fam).block_dims

    def test_near_equal_frequencies_stay_apart(self):
        # rho_bar = diag(w), w ∝ (1, e^{-a}, e^{-a-delta}): the modular
        # frequencies a and a + delta (and 0 and delta) are close but
        # distinct.  The states differ from rho_bar by a coherence from
        # level 0 to levels 1 and 2 only.  Kept apart, its parts at the two
        # frequencies generate M_3; summed into one part, they generate
        # only M_2 (+) C, which the modular flow does not preserve.  The
        # second family plants the same factor beside a fixed state omega
        # with log-gap b: the block becomes (3, 2), and the frequencies
        # b and b +- delta sit just below a.
        a, delta, b = 1.0, 0.1, math.log(7 / 3)
        w = np.exp([0.0, -a, -a - delta])
        root = np.diag(np.sqrt(w / w.sum())).astype(complex)
        coh = np.zeros((3, 3), dtype=complex)
        coh[0, 1], coh[0, 2] = 0.3, 0.2j
        coh = coh + coh.conj().T
        factors = [root @ (np.eye(3) + s * coh) @ root for s in (1, -1)]
        omega = np.diag([1.0, np.exp(-b)]) / (1.0 + np.exp(-b))
        for states, planted in [
            (factors, [(3, 1)]),
            ([np.kron(f, omega) for f in factors], [(3, 2)]),
        ]:
            fam = StateFamily(tuple(DensityMatrix(x) for x in states), ("a", "b"))
            assert ki_decompose(fam).block_dims == planted
            assert ki_refinement_oracle(fam).block_dims == planted

    def test_size_cap(self, rng):
        big = DensityMatrix.maximally_mixed(64)
        with pytest.raises(SizeCap):
            ki_decompose(StateFamily((big,), ("a",)))

    @settings(max_examples=60, deadline=None, database=None)
    @given(blocks=PLANTED, n_states=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_planted_blocks_in_random_frame(self, blocks, n_states, seed):
        fam = planted_family(np.random.default_rng(seed), blocks, n_states)
        # The one-step modular closure: ad_{log rho_bar} maps the algebra
        # generated by the modular components into itself.  Two-state
        # families exercise it, since T_1 + T_2 = 2I makes the transition
        # operators alone generate a commutative algebra.
        _, wk, hatted = _support_restrict(fam)
        basis = generate_algebra(_modular_components(wk, hatted))
        flat = np.array(basis).reshape(len(basis), -1)
        log_avg = np.diag(np.log(wk)).astype(complex)
        for b in basis:
            c = commutator(log_avg, b).ravel()
            outside = c - (flat.conj() @ c) @ flat
            assert np.linalg.norm(outside) <= 1e-7 * (1.0 + np.linalg.norm(c))
        dec = ki_decompose(fam)
        assert dec.block_dims == sorted(blocks)
        for x, state in enumerate(fam.states):
            assert 0.5 * trace_norm(state.mat - reconstruct_state(dec, x)) <= 1e-7


class TestOrbitFamily:
    def test_symmetric_state_trivial_orbit(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        fam = orbit_family(rho, QUBIT, 2)
        for s in fam.states:
            assert max_abs(s.mat - rho.mat) < 1e-12

    def test_plus_orbit_four_equator_points(self):
        fam = orbit_family(PLUS, QUBIT, 4)
        assert len(fam.states) == 4
        phases = [s.mat[0, 1] for s in fam.states]
        expected = [0.5 * np.exp(1j * math.pi * j / 2) for j in range(4)]
        for p, e in zip(phases, expected):
            assert abs(p - e) < 1e-12

    def test_algebra_dimension_stable_from_four(self):
        # 4 samples keep a qubit's frequencies -1, 0, 1 apart; 2 alias -1
        # onto 1, and 3 are the fewest that do not
        assert len(orbit_family(PLUS, QUBIT, 4).states) == 4
        assert len(orbit_family(PLUS, QUBIT, 2).states) == 3

    def test_aliased_frequencies_get_more_samples(self):
        # Spectrum (0, 1, 7): with 3 or 6 samples the frequency 7 aliases
        # onto 1 and 6 onto 0, and the sampled orbit of |+> carries a
        # smaller algebra than the continuous one (blocks [(2, 1)]).  Two of
        # the frequencies 0, +-1, +-6, +-7 differ by 1, 2, 5-8 or 12-14, so 9
        # is the fewest samples (from 3) at which no two agree mod n.
        sys3 = SystemSpec.diagonal([0, 1, 7])
        plus3 = DensityMatrix.pure([1, 1, 1])
        fam = orbit_family(plus3, sys3, 3)
        assert len(fam.states) == 9
        assert ki_decompose(fam).block_dims == [(3, 1)]
        # -32, 0 and 32 stay apart mod 5: a wide spectrum needs no more
        fam = orbit_family(PLUS, SystemSpec.diagonal([0, 32]), 4)
        assert len(fam.states) == 5
        assert ki_decompose(fam).block_dims == [(2, 1)]
        # spectrum 0..33 has the 67 frequencies -33..33, so it needs 67
        with pytest.raises(SizeCap, match="65"):
            orbit_family(DensityMatrix.pure([1] * 34), SystemSpec.diagonal(range(34)), 4)

    def test_minimum_samples(self):
        with pytest.raises(PreconditionFailed):
            orbit_family(PLUS, QUBIT, 1)


class TestEhrenfest:
    def test_symmetric_state_zero(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        fam = orbit_family(rho, QUBIT, 2)
        dec = ki_decompose(fam)
        assert ehrenfest_constancy_check(dec, rho, QUBIT, [0.1, 0.9, 2.2]) < 1e-12

    def test_plus_orbit(self):
        fam = orbit_family(PLUS, QUBIT, 4)
        dec = ki_decompose(fam)
        grid = list(np.linspace(0, 2 * math.pi, 17))
        assert ehrenfest_constancy_check(dec, PLUS, QUBIT, grid) <= 1e-7

    def test_structured_qutrit_family(self, rng):
        # a coherent state on a qutrit with a nontrivial classical part
        sys3 = SystemSpec.diagonal([0, 1, 2])
        vec = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        rho = DensityMatrix(0.8 * np.outer(vec, vec) + 0.2 * np.diag([0, 0, 1.0]))
        fam = orbit_family(rho, sys3, 4)
        dec = ki_decompose(fam)
        grid = list(np.linspace(0, 2 * math.pi, 13))
        assert ehrenfest_constancy_check(dec, rho, sys3, grid) <= 1e-7


class TestLemma4ReducedForm:
    def _prepare_channel(self, tau_mat):
        out_sys = tensor_system(QUBIT, QUBIT)
        return Channel(
            QUBIT, out_sys, choi_from_map(lambda m: tensor_product(m, tau_mat), 2, 4)
        )

    def test_identity_prepare(self, rng):
        tau = random_density_matrix(2, 2, rng)
        ch = self._prepare_channel(tau.mat)
        fam = orbit_family(PLUS, QUBIT, 4)
        dec = ki_decompose(fam)
        res = lemma4_reduced_form_check(ch, fam, dec, tol=1e-9)
        assert res.residual <= 1e-9
        assert max_abs(res.block_states[0] - tau.mat) < 1e-8

    def test_classical_measure_and_reprepare(self):
        # commuting family broadcast by measuring in the common eigenbasis
        r1 = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        r2 = DensityMatrix(np.diag([0.2, 0.8]).astype(complex))
        fam = StateFamily((r1, r2), ("a", "b"))
        dec = ki_decompose(fam)
        out_sys = tensor_system(QUBIT, QUBIT)

        def measure_reprepare(m):
            out = np.zeros((4, 4), dtype=complex)
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[j, j] = 1.0
                out += m[j, j] * tensor_product(unit, unit)
            return out

        ch = Channel(QUBIT, out_sys, choi_from_map(measure_reprepare, 2, 4))
        res = lemma4_reduced_form_check(ch, fam, dec, tol=1e-8)
        assert res.residual <= 1e-8

    def test_covariant_marginal_fixer_gives_symmetric_blocks(self):
        # keep-and-prepare with a symmetric prepared state: the block
        # states recovered from the orbit family must be symmetric
        ch = self._prepare_channel(np.eye(2) / 2)
        fam = orbit_family(PLUS, QUBIT, 4)
        dec = ki_decompose(fam)
        res = lemma4_reduced_form_check(ch, fam, dec, tol=1e-9)
        for state in res.block_states:
            verdict = is_symmetric_state(
                DensityMatrix((state + state.conj().T) / 2), QUBIT, 1e-8
            )
            assert verdict.ok

    def test_precondition_failure(self, rng):
        # a channel that replaces the Q output disturbs the marginal
        out_sys = tensor_system(QUBIT, QUBIT)
        half = np.eye(2) / 2
        ch = Channel(
            QUBIT,
            out_sys,
            choi_from_map(lambda m: tensor_product(np.trace(m) * half, half), 2, 4),
        )
        fam = orbit_family(PLUS, QUBIT, 4)
        dec = ki_decompose(fam)
        with pytest.raises(PreconditionFailed):
            lemma4_reduced_form_check(ch, fam, dec, tol=1e-6)
