"""Group action, covariance predicates, twirls, and asymmetry measures."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymmbench.linalg import max_abs, tensor_product
from asymmbench.qtypes import (
    Channel,
    DensityMatrix,
    SystemSpec,
    apply_channel,
    choi_from_map,
    random_density_matrix,
)
from asymmbench.symmetry import (
    CovarianceSector,
    is_covariant_channel,
    is_symmetric_state,
    measure_ft,
    random_covariant_channel,
    skew_information,
    time_translate,
    twirl_channel,
    twirl_state,
)

from conftest import product_ft_identity_check, random_choi, random_integer_system

QUBIT = SystemSpec.diagonal([0, 1])
PLUS = DensityMatrix.pure([1, 1])
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def hadamard_channel():
    return Channel(
        QUBIT, QUBIT, choi_from_map(lambda m: HADAMARD @ m @ HADAMARD.conj().T, 2, 2)
    )


class TestTimeTranslate:
    def test_commuting_state_fixed(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        out = time_translate(rho, QUBIT, 1.234)
        assert max_abs(out.mat - rho.mat) < 1e-12

    def test_plus_to_minus_at_pi(self):
        minus = DensityMatrix.pure([1, -1])
        assert max_abs(time_translate(PLUS, QUBIT, math.pi).mat - minus.mat) < 1e-12

    def test_zero_time(self):
        assert max_abs(time_translate(PLUS, QUBIT, 0.0).mat - PLUS.mat) < 1e-15


class TestSymmetricState:
    def test_maximally_mixed(self):
        verdict = is_symmetric_state(DensityMatrix.maximally_mixed(3), SystemSpec.diagonal([0, 1, 2]))
        assert verdict.ok and verdict.witness == 0.0

    def test_plus_witness_half(self):
        verdict = is_symmetric_state(PLUS, QUBIT)
        assert not verdict.ok
        assert abs(verdict.witness - 0.5) < 1e-12

    def test_eigenstate_symmetric(self):
        verdict = is_symmetric_state(DensityMatrix.pure([0, 1]), QUBIT)
        assert verdict.ok


class TestCovariantChannel:
    def test_group_action_covariant(self):
        u = QUBIT.translation(0.77)
        ch = Channel(QUBIT, QUBIT, choi_from_map(lambda m: u @ m @ u.conj().T, 2, 2))
        assert is_covariant_channel(ch).witness <= 1e-9

    def test_dephasing_covariant(self):
        ch = Channel(QUBIT, QUBIT, choi_from_map(lambda m: np.diag(np.diag(m)), 2, 2))
        assert is_covariant_channel(ch).witness <= 1e-9

    def test_hadamard_not_covariant(self):
        verdict = is_covariant_channel(hadamard_channel())
        assert not verdict.ok
        assert verdict.witness > 0.4

    def test_covariance_matches_group_commutation(self, rng):
        # Choi-level predicate agrees with direct intertwining at sampled times
        for _ in range(20):
            sys_in = random_integer_system(2, rng)
            sys_out = random_integer_system(3, rng)
            ch = Channel(sys_in, sys_out, random_choi(2, 3, rng))
            witness = is_covariant_channel(ch).witness
            worst = 0.0
            for t in np.linspace(0.3, 5.9, 7):
                u_in, u_out = sys_in.translation(t), sys_out.translation(t)
                for i in range(2):
                    for j in range(2):
                        unit = np.zeros((2, 2), dtype=complex)
                        unit[i, j] = 1.0
                        from asymmbench.qtypes import apply_choi

                        lhs = apply_choi(ch.choi, u_in @ unit @ u_in.conj().T)
                        rhs = u_out @ apply_choi(ch.choi, unit) @ u_out.conj().T
                        worst = max(worst, max_abs(lhs - rhs))
            assert (witness <= 1e-9) == (worst <= 1e-8)


class TestTwirl:
    def test_twirl_makes_covariant(self, rng):
        for _ in range(500):
            d_in = int(rng.integers(2, 4))
            d_out = int(rng.integers(2, 4))
            sys_in = random_integer_system(d_in, rng)
            sys_out = random_integer_system(d_out, rng)
            ch = Channel(sys_in, sys_out, random_choi(d_in, d_out, rng))
            assert is_covariant_channel(twirl_channel(ch)).witness <= 1e-10

    def test_twirl_fixes_covariant(self, rng):
        ch = random_covariant_channel(QUBIT, QUBIT, rng)
        assert max_abs(twirl_channel(ch).choi - ch.choi) < 1e-10

    def test_twirl_idempotent(self, rng):
        sys_in = random_integer_system(2, rng)
        sys_out = random_integer_system(3, rng)
        ch = Channel(sys_in, sys_out, random_choi(2, 3, rng))
        once = twirl_channel(ch)
        twice = twirl_channel(once)
        assert max_abs(twice.choi - once.choi) <= 1e-12

    def test_twirled_hadamard_action(self):
        # Group-average oracle: the twirl of conjugation by the Hadamard
        # halves and negates the off-diagonal part of the input.
        tw = twirl_channel(hadamard_channel())
        out = apply_channel(tw, PLUS)
        assert abs(out.mat[0, 1] + 0.25) < 1e-12
        acc = np.zeros((2, 2), dtype=complex)
        n = 720
        for k in range(n):
            t = 2 * math.pi * k / n
            u = QUBIT.translation(t)
            acc += (
                u.conj().T
                @ (HADAMARD @ (u @ PLUS.mat @ u.conj().T) @ HADAMARD.conj().T)
                @ u
            )
        assert max_abs(out.mat - acc / n) < 1e-12

    def test_twirl_state_plus(self):
        assert max_abs(twirl_state(PLUS, QUBIT).mat - np.eye(2) / 2) < 1e-12

    def test_twirl_state_fixes_symmetric(self):
        rho = DensityMatrix(np.diag([0.2, 0.8]).astype(complex))
        assert max_abs(twirl_state(rho, QUBIT).mat - rho.mat) < 1e-14

    def test_twirl_state_trace_preserving(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 5))
            sys = random_integer_system(d, rng)
            rho = random_density_matrix(d, int(rng.integers(1, d + 1)), rng)
            out = twirl_state(rho, sys)
            assert abs(np.trace(out.mat).real - 1) < 1e-12
            assert is_symmetric_state(out, sys).witness <= 1e-12


class TestCovarianceSector:
    def test_memoised_per_pair_and_read_only(self, rng):
        sys_in = random_integer_system(2, rng)
        sys_out = random_integer_system(3, rng)
        sec = CovarianceSector.for_channel(sys_out, sys_in)
        assert CovarianceSector.for_channel(sys_out, sys_in) is sec
        # a different pair of systems gets its own sector
        assert CovarianceSector.for_channel(sys_in, sys_out) is not sec
        for arr in (sec.basis, sec.labels, sec.generator):
            with pytest.raises(ValueError):
                arr[0] = arr[1]
        with pytest.raises(ValueError):
            sec.basis *= 2

    def test_projectors_complete_and_orthogonal(self, rng):
        sys_in = random_integer_system(2, rng)
        sys_out = random_integer_system(3, rng)
        sec = CovarianceSector.for_channel(sys_out, sys_in)
        sectors = {}
        for lab in np.unique(sec.labels):
            cols = sec.basis[:, sec.labels == lab]
            sectors[lab] = cols @ cols.conj().T
            # the columns labelled lab span the eigenspace of K for lab
            assert max_abs(sec.generator @ sectors[lab] - lab * sectors[lab]) < 1e-10
        assert max_abs(sum(sectors.values()) - np.eye(6)) < 1e-10
        keys = list(sectors)
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                assert max_abs(sectors[a] @ sectors[b]) < 1e-10

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        dims=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_cover_the_sectors_and_span_the_commutant(self, dims, seed):
        # spectra drawn from -2..2, so degenerate levels are common
        rng = np.random.default_rng(seed)
        sys_in = random_integer_system(dims[0], rng)
        sys_out = random_integer_system(dims[1], rng)
        sec = CovarianceSector.for_channel(sys_out, sys_in)
        di, dd = sys_in.dim, sys_in.dim * sys_out.dim
        tr_e, layout = sec.blocks
        # each group as (flat (g, m*m), e (g, n, m, m)); a 1x1 group's rows
        # of E are eye(n)[level]
        groups = []
        for f, e, e_conj in layout:
            if e_conj is None:
                groups.append((f[:, None], np.eye(tr_e.size)[e][:, :, None, None]))
            else:
                assert np.array_equal(e_conj, e.conj())
                groups.append((f, e))
        sizes = [e.shape[-1] for _, e in groups]
        assert len(set(sizes)) == len(sizes)
        # the group indices partition exactly the same-label entries
        flat = np.concatenate([f.ravel() for f, _ in groups])
        assert np.array_equal(np.sort(flat), np.flatnonzero(sec.same_sector))
        for f, e in groups:
            m = e.shape[-1]
            assert f.shape == (e.shape[0], m * m) and e.shape[1] == tr_e.size
        # the blocks of each I (x) E_k make up all of it
        es = []
        for k in range(tr_e.size):
            full = np.zeros(dd * dd, dtype=complex)
            for f, e in groups:
                full[f.ravel()] = e[:, k].ravel()
            full = full.reshape(dd, dd)
            ek = full[:di, :di]
            assert max_abs(full - tensor_product(np.eye(sys_out.dim), ek)) == 0.0
            es.append(ek)
        es = np.array(es)
        h_in = np.diag(np.array(sys_in.spectrum, dtype=float))
        # orthonormal, Hermitian and commuting with diag(in spectrum), and
        # as many as the commutant's dimension
        gram = np.einsum("kij,lij->kl", es.conj(), es)
        assert max_abs(gram - np.eye(tr_e.size)) < 1e-12
        assert max_abs(es - es.conj().transpose(0, 2, 1)) == 0.0
        assert max_abs(es @ h_in - h_in @ es) == 0.0
        _, mult = np.unique(sys_in.spectrum, return_counts=True)
        assert tr_e.size == int(np.sum(mult**2))
        assert max_abs(tr_e - np.trace(es, axis1=1, axis2=2)) < 1e-15

    def test_blocks_and_mask_read_only(self, rng):
        # QUBIT -> QUBIT has a 1x1 and a 2x2 group
        for sys_out in (random_integer_system(2, rng), QUBIT):
            sec = CovarianceSector.for_channel(sys_out, QUBIT)
            tr_e, groups = sec.blocks
            arrays = [arr for group in groups for arr in group if arr is not None]
            for arr in [sec.same_sector, tr_e] + arrays:
                with pytest.raises(ValueError):
                    arr[0] = arr[0]


class TestRandomCovariantChannel:
    def test_contract(self, rng):
        ch = random_covariant_channel(QUBIT, QUBIT, rng)
        assert is_covariant_channel(ch).witness <= 1e-9

    def test_maps_symmetric_to_symmetric(self, rng):
        for _ in range(500):
            d_in = int(rng.integers(2, 4))
            d_out = int(rng.integers(2, 4))
            sys_in = random_integer_system(d_in, rng)
            sys_out = random_integer_system(d_out, rng)
            ch = random_covariant_channel(sys_in, sys_out, rng)
            rho = twirl_state(
                random_density_matrix(d_in, d_in, rng), sys_in
            )
            out = apply_channel(ch, rho)
            assert is_symmetric_state(out, sys_out).witness <= 1e-8

    def test_deterministic_given_seed(self):
        a = random_covariant_channel(QUBIT, QUBIT, np.random.default_rng(4)).choi
        b = random_covariant_channel(QUBIT, QUBIT, np.random.default_rng(4)).choi
        assert np.array_equal(a, b)


class TestMeasures:
    def test_ft_vanishes_on_incoherent(self, rng):
        rho = DensityMatrix(np.diag([0.4, 0.6]).astype(complex))
        for t in rng.uniform(-5, 5, size=10):
            assert measure_ft(rho, QUBIT, float(t)) <= 1e-12

    def test_ft_plus_quarter_turn(self):
        expect = 1 - math.cos(math.pi / 4)
        assert abs(measure_ft(PLUS, QUBIT, math.pi / 2) - expect) < 1e-12

    def test_ft_plus_half_turn(self):
        assert abs(measure_ft(PLUS, QUBIT, math.pi) - 1) < 1e-12

    def test_ft_even_in_t(self, rng):
        for _ in range(500):
            d = int(rng.integers(2, 4))
            sys = random_integer_system(d, rng)
            rho = random_density_matrix(d, int(rng.integers(1, d + 1)), rng)
            t = float(rng.uniform(-6, 6))
            assert abs(measure_ft(rho, sys, t) - measure_ft(rho, sys, -t)) < 1e-9

    def test_skew_eigenstate_zero(self):
        assert skew_information(DensityMatrix.pure([0, 1]), QUBIT) < 1e-12

    def test_skew_plus_quarter(self):
        assert abs(skew_information(PLUS, QUBIT) - 0.25) < 1e-12

    def test_skew_pure_equals_variance(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 5))
            sys = random_integer_system(d, rng)
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            psi /= np.linalg.norm(psi)
            rho = DensityMatrix.pure(psi)
            h = sys.hamiltonian
            var = (np.vdot(psi, h @ h @ psi) - np.vdot(psi, h @ psi) ** 2).real
            assert abs(skew_information(rho, sys) - var) < 1e-9

    def test_skew_mixture_closed_form(self):
        for c in (0.2, 0.6, 0.9):
            rho = DensityMatrix(c * PLUS.mat + (1 - c) * np.eye(2) / 2)
            assert abs(skew_information(rho, QUBIT) - 0.25 * (1 - math.sqrt(1 - c * c))) < 1e-9

    def test_skew_faithful_on_full_rank_perturbations(self, rng):
        eps = 1e-8
        for _ in range(20):
            sys = random_integer_system(3, rng, span=1)
            rho = random_density_matrix(3, 3, rng)
            full = DensityMatrix((1 - eps) * rho.mat + eps * np.eye(3) / 3)
            witness = is_symmetric_state(full, sys).witness
            skew = skew_information(full, sys)
            if witness > 1e-4:
                assert skew > 0


class TestMonotonicity:
    def test_measures_never_increase_under_covariant_channels(self, rng):
        # 1000 random (channel, state, t) triples at d in {2, 3}
        for _ in range(1000):
            d_in = int(rng.choice([2, 3]))
            d_out = int(rng.choice([2, 3]))
            sys_in = random_integer_system(d_in, rng)
            sys_out = random_integer_system(d_out, rng) if d_out != d_in else sys_in
            ch = random_covariant_channel(sys_in, sys_out, rng)
            rho = random_density_matrix(d_in, int(rng.integers(1, d_in + 1)), rng)
            out = apply_channel(ch, rho)
            t = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            assert measure_ft(out, sys_out, t) <= measure_ft(rho, sys_in, t) + 1e-9
            if sys_out is sys_in:
                assert skew_information(out, sys_out) <= skew_information(rho, sys_in) + 1e-9


class TestProductRule:
    def test_incoherent_factor_drops_out(self, rng):
        psi = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        sigma = random_density_matrix(2, 2, rng)
        res = product_ft_identity_check(psi, sigma, QUBIT, QUBIT, 1.1)
        assert res <= 1e-9

    def test_plus_pair(self):
        assert product_ft_identity_check(PLUS, PLUS, QUBIT, QUBIT, math.pi / 2) <= 1e-9

    def test_zero_shift(self, rng):
        a = random_density_matrix(2, 2, rng)
        b = random_density_matrix(3, 3, rng)
        assert product_ft_identity_check(a, b, QUBIT, SystemSpec.diagonal([0, 1, 2]), 0.0) < 1e-12

    def test_random_cases(self, rng):
        for _ in range(50):
            sys_a = random_integer_system(2, rng)
            sys_b = random_integer_system(3, rng)
            a = random_density_matrix(2, int(rng.integers(1, 3)), rng)
            b = random_density_matrix(3, int(rng.integers(1, 4)), rng)
            t = float(rng.uniform(-4, 4))
            assert product_ft_identity_check(a, b, sys_a, sys_b, t) <= 1e-9
