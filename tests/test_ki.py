"""Koashi-Imoto decomposition, algebra machinery, and structure checks."""
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymmbench import ki
from asymmbench.errors import (
    CenterDegenerate,
    DecompositionInvalid,
    NonFinite,
    PreconditionFailed,
    SizeCap,
)
from asymmbench.ki import (
    WedderburnBlock,
    _assemble,
    _check_factorization,
    _modular_components,
    _support_restrict,
    _validate_decomposition,
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
from asymmbench.symmetry import is_symmetric_state, twirl_state

from conftest import (
    planted_family,
    random_integer_system,
    random_structured_family,
    random_unitary,
)

QUBIT = SystemSpec.diagonal([0, 1])
PLUS = DensityMatrix.pure([1, 1])
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
# planted (m, k) block lists on at most six dimensions
PLANTED = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=4
).filter(lambda blocks: sum(m * k for m, k in blocks) <= 6)


def orbit_from(rho, sys, n):
    """orbit_family with its first sample count set to n instead of 4."""
    with mock.patch.object(ki, "_ORBIT_SAMPLES", n):
        return orbit_family(rho, sys)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_generator_raises(self, bad):
        # such a generator used to be dropped, leaving the algebra of the rest
        gen = np.ones((2, 2), dtype=complex)
        gen[0, 1] = bad
        with pytest.raises(NonFinite):
            generate_algebra([np.diag([1.0, 0.0]).astype(complex), gen])


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
        fam = orbit_family(PLUS, QUBIT)
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

    def test_oracle_splits_a_uniform_multiplicity(self, rng):
        # States L_x (x) I/2 in a random frame: every member is degenerate
        # across the multiplicity factor, so no combination of them tells
        # the two copies of L apart and the oracle must split the support
        # along a commutant direction.  Without that split it hands one
        # piece of dimension 4 to the assembly, whose factor is not maximal.
        q = random_unitary(4, rng)
        states = tuple(
            DensityMatrix(q @ np.kron(random_density_matrix(2, 2, rng).mat, np.eye(2) / 2) @ q.conj().T)
            for _ in range(3)
        )
        fam = StateFamily(states, ("a", "b", "c"))
        for dec in (ki_refinement_oracle(fam), ki_decompose(fam)):
            assert dec.block_dims == [(2, 2)]
            assert max_abs(dec.blocks[0].omega.mat - np.eye(2) / 2) <= 1e-9

    def _unweighted_block_family(self, rng):
        # State "b" lies on the one-level block and has no weight on the
        # (2, 1) block the other states share.
        q = random_unitary(3, rng)
        states = []
        for w in (0.6, 1.0, 0.3):
            full = np.zeros((3, 3), dtype=complex)
            full[:2, :2] = (1 - w) * random_density_matrix(2, 2, rng).mat
            full[2, 2] = w
            states.append(DensityMatrix(q @ full @ q.conj().T))
        return StateFamily(tuple(states), ("a", "b", "c"))

    def test_unweighted_block_gets_the_maximally_mixed_l_state(self, rng):
        fam = self._unweighted_block_family(rng)
        dec = ki_decompose(fam)
        assert dec.block_dims == [(1, 1), (2, 1)]
        [mu] = [mu for mu, blk in enumerate(dec.blocks) if blk.m == 2]
        assert dec.probs[1, mu] <= 1e-12
        assert np.array_equal(dec.l_states[1][mu], np.eye(2) / 2)
        assert 0.5 * trace_norm(fam.states[1].mat - reconstruct_state(dec, 1)) <= 1e-7

    def test_reconstruction_reads_no_unweighted_l_state(self, rng):
        # A block a state has no weight on contributes nothing, whatever
        # stands in for its L-state: a NaN there must not reach the sum.
        fam = self._unweighted_block_family(rng)
        dec = ki_decompose(fam)
        [mu] = [mu for mu, blk in enumerate(dec.blocks) if blk.m == 2]
        probs = dec.probs.copy()
        probs[1, mu] = 0.0
        l_states = list(dec.l_states)
        l_states[1] = tuple(np.full((2, 2), np.nan) if i == mu else s for i, s in enumerate(l_states[1]))
        rebuilt = reconstruct_state(replace(dec, probs=probs, l_states=tuple(l_states)), 1)
        assert 0.5 * trace_norm(fam.states[1].mat - rebuilt) <= 1e-7

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

    def test_assembly_rejects_a_frame_with_swapped_factors(self, rng):
        # Both back-ends hand their frames to one assembly, so a frame that
        # mislabels L and R indices fails validation whoever built it.
        # Swapping columns 1 and 2 of a (2, 2) frame swaps (a, alpha) =
        # (0, 1) and (1, 0); with omega not uniform the states no longer
        # read rho_L (x) omega in that frame.
        fam = planted_family(rng, [(2, 2)], 3)
        support = _support_restrict(fam)
        [frame] = wedderburn_decompose(generate_algebra(_modular_components(*support[1:])))
        omega = _assemble(fam, *support, [frame]).blocks[0].omega.mat
        assert abs(omega[0, 0] - omega[1, 1]) > 1e-3 or abs(omega[0, 1]) > 1e-3
        swapped = frame.isometry[:, [0, 2, 1, 3]]
        with pytest.raises(DecompositionInvalid):
            _assemble(fam, *support, [WedderburnBlock(swapped, 2, 2)])

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


class TestPlantedStructureFaults:
    """One planted fault per structural check of a decomposition.

    Each fault is applied to a real decomposition that passes the check
    unplanted, so the raise is the fault's doing.
    """

    COMMUTING = StateFamily(
        (
            DensityMatrix(np.diag([0.7, 0.3]).astype(complex)),
            DensityMatrix(np.diag([0.2, 0.8]).astype(complex)),
        ),
        ("a", "b"),
    )

    def _real(self):
        w_iso, wk, hatted = _support_restrict(self.COMMUTING)
        dec = ki_decompose(self.COMMUTING)
        assert dec.block_dims == [(1, 1), (1, 1)]
        assert _validate_decomposition(dec, self.COMMUTING, w_iso) <= 1e-12
        return dec, (w_iso, wk, hatted)

    def test_dropped_block_leaves_the_support_unresolved(self):
        dec, (w_iso, _, _) = self._real()
        with pytest.raises(DecompositionInvalid, match="do not resolve the support"):
            _validate_decomposition(replace(dec, blocks=dec.blocks[1:]), self.COMMUTING, w_iso)

    def test_block_split_in_two_halves_is_not_isometric(self):
        # two copies of a block at isometry / sqrt(2) keep the projector sum
        dec, (w_iso, _, _) = self._real()
        blk = dec.blocks[0]
        half = replace(blk, isometry=blk.isometry / math.sqrt(2))
        split = replace(dec, blocks=(half, half) + dec.blocks[1:])
        with pytest.raises(DecompositionInvalid, match="block isometry is not isometric"):
            _validate_decomposition(split, self.COMMUTING, w_iso)

    def test_merged_commuting_blocks_are_not_maximal(self):
        # the two 1-dimensional blocks presented as one (m = 2, k = 1) block
        # reconstruct every state, but their L states commute
        _, support = self._real()
        merged = WedderburnBlock(np.eye(2, dtype=complex), 2, 1)
        with pytest.raises(DecompositionInvalid, match=r"block 0 factor is not maximal \(m=2\)"):
            _assemble(self.COMMUTING, *support, [merged])

    def test_missing_block_does_not_add_up(self):
        stack = np.array(generate_algebra([np.diag([1.0, 2.0, 3.0]).astype(complex)]))
        blocks = wedderburn_decompose(list(stack))
        _check_factorization(stack, blocks)
        with pytest.raises(CenterDegenerate, match="do not add up to the algebra dimension"):
            _check_factorization(stack, blocks[:2])

    def test_swapped_factor_frame_does_not_factor(self):
        # M_2 (x) I_2 read in a frame with its L and R indices swapped
        stack = np.array(
            generate_algebra([tensor_product(SX, np.eye(2)), tensor_product(SZ, np.eye(2))])
        )
        [blk] = wedderburn_decompose(list(stack))
        _check_factorization(stack, [blk])
        swapped = WedderburnBlock(blk.isometry[:, [0, 2, 1, 3]], 2, 2)
        with pytest.raises(CenterDegenerate, match="does not factor through the blocks"):
            _check_factorization(stack, [swapped])


class TestOrbitFamily:
    def test_symmetric_state_trivial_orbit(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        fam = orbit_from(rho, QUBIT, 2)
        for s in fam.states:
            assert max_abs(s.mat - rho.mat) < 1e-12

    def test_plus_orbit_four_equator_points(self):
        fam = orbit_family(PLUS, QUBIT)
        assert len(fam.states) == 4
        phases = [s.mat[0, 1] for s in fam.states]
        expected = [0.5 * np.exp(1j * math.pi * j / 2) for j in range(4)]
        for p, e in zip(phases, expected):
            assert abs(p - e) < 1e-12

    def test_algebra_dimension_stable_from_four(self):
        # 4 samples keep a qubit's frequencies -1, 0, 1 apart; 2 alias -1
        # onto 1, and 3 are the fewest that do not
        assert len(orbit_family(PLUS, QUBIT).states) == 4
        assert len(orbit_from(PLUS, QUBIT, 2).states) == 3

    def test_aliased_frequencies_get_more_samples(self):
        # Spectrum (0, 1, 7): with 3 or 6 samples the frequency 7 aliases
        # onto 1 and 6 onto 0, and the sampled orbit of |+> carries a
        # smaller algebra than the continuous one (blocks [(2, 1)]).  Two of
        # the frequencies 0, +-1, +-6, +-7 differ by 1, 2, 5-8 or 12-14, so 9
        # is the fewest samples (from 3) at which no two agree mod n.
        sys3 = SystemSpec.diagonal([0, 1, 7])
        plus3 = DensityMatrix.pure([1, 1, 1])
        fam = orbit_from(plus3, sys3, 3)
        assert len(fam.states) == 9
        assert ki_decompose(fam).block_dims == [(3, 1)]
        # -32, 0 and 32 stay apart mod 5: a wide spectrum needs no more
        fam = orbit_family(PLUS, SystemSpec.diagonal([0, 32]))
        assert len(fam.states) == 5
        assert ki_decompose(fam).block_dims == [(2, 1)]
        # spectrum 0..33 has the 67 frequencies -33..33, so it needs 67
        with pytest.raises(SizeCap, match="65"):
            orbit_family(DensityMatrix.pure([1] * 34), SystemSpec.diagonal(range(34)))

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        d=st.integers(2, 4),
        n=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sampled_orbit_averages_to_the_twirl(self, d, n, seed):
        # without aliasing, every frequency but 0 cancels over the samples
        rng = np.random.default_rng(seed)
        sys = random_integer_system(d, rng, span=3)
        rho = random_density_matrix(d, int(rng.integers(1, d + 1)), rng)
        average = orbit_from(rho, sys, n).average()
        assert max_abs(average - twirl_state(rho, sys).mat) <= 1e-12


class TestEhrenfest:
    def test_symmetric_state_zero(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        fam = orbit_from(rho, QUBIT, 2)
        dec = ki_decompose(fam)
        assert ehrenfest_constancy_check(dec, rho, QUBIT, [0.1, 0.9, 2.2]) < 1e-12

    def test_plus_orbit(self):
        fam = orbit_family(PLUS, QUBIT)
        dec = ki_decompose(fam)
        grid = list(np.linspace(0, 2 * math.pi, 17))
        assert ehrenfest_constancy_check(dec, PLUS, QUBIT, grid) <= 1e-7

    def test_structured_qutrit_family(self, rng):
        # a coherent state on a qutrit with a nontrivial classical part
        sys3 = SystemSpec.diagonal([0, 1, 2])
        vec = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        rho = DensityMatrix(0.8 * np.outer(vec, vec) + 0.2 * np.diag([0, 0, 1.0]))
        fam = orbit_family(rho, sys3)
        dec = ki_decompose(fam)
        grid = list(np.linspace(0, 2 * math.pi, 13))
        assert ehrenfest_constancy_check(dec, rho, sys3, grid) <= 1e-7


class TestLemma4ReducedForm:
    def _prepare_channel(self, tau_mat):
        out_sys = tensor_system(QUBIT, QUBIT)
        return Channel(
            QUBIT, out_sys, choi_from_map(lambda m: tensor_product(m, tau_mat), 2, 4)
        )

    def test_identity_prepare(self, rng, monkeypatch):
        monkeypatch.setattr(ki, "_REDUCED_FORM_TOL", 1e-9)
        tau = random_density_matrix(2, 2, rng)
        ch = self._prepare_channel(tau.mat)
        fam = orbit_family(PLUS, QUBIT)
        dec = ki_decompose(fam)
        res = lemma4_reduced_form_check(ch, fam, dec)
        assert res.residual <= 1e-9
        assert max_abs(res.block_states[0] - tau.mat) < 1e-8

    def test_classical_measure_and_reprepare(self, monkeypatch):
        monkeypatch.setattr(ki, "_REDUCED_FORM_TOL", 1e-8)
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
        res = lemma4_reduced_form_check(ch, fam, dec)
        assert res.residual <= 1e-8

    def test_covariant_marginal_fixer_gives_symmetric_blocks(self, monkeypatch):
        # keep-and-prepare with a symmetric prepared state: the block
        # states recovered from the orbit family must be symmetric
        monkeypatch.setattr(ki, "_REDUCED_FORM_TOL", 1e-9)
        ch = self._prepare_channel(np.eye(2) / 2)
        fam = orbit_family(PLUS, QUBIT)
        dec = ki_decompose(fam)
        res = lemma4_reduced_form_check(ch, fam, dec)
        for state in res.block_states:
            verdict = is_symmetric_state(DensityMatrix((state + state.conj().T) / 2), QUBIT)
            assert verdict.witness <= 1e-8

    def test_precondition_failure(self, rng):
        # a channel that replaces the Q output disturbs the marginal
        out_sys = tensor_system(QUBIT, QUBIT)
        half = np.eye(2) / 2
        ch = Channel(
            QUBIT,
            out_sys,
            choi_from_map(lambda m: tensor_product(np.trace(m) * half, half), 2, 4),
        )
        fam = orbit_family(PLUS, QUBIT)
        dec = ki_decompose(fam)
        with pytest.raises(PreconditionFailed):
            lemma4_reduced_form_check(ch, fam, dec)
