"""Quantum object layer: validation, channels, and wire formats."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymmbench.errors import DimensionMismatch, InvalidChannel, NonHermitian, NotPSD, ParseError
from asymmbench.linalg import max_abs
from asymmbench.qtypes import (
    Channel,
    DensityMatrix,
    SystemSpec,
    apply_channel,
    apply_choi,
    check_density,
    choi_from_map,
    cyclic_shift_system,
    induce_channel,
    random_density_matrix,
    tensor_system,
)
from asymmbench.serialize import (
    matrix_from_json,
    matrix_to_json,
    system_from_json,
    system_to_json,
)

from conftest import random_choi, random_integer_system, random_unitary


class TestDensityMatrix:
    def test_accepts_valid(self):
        DensityMatrix(np.diag([0.25, 0.75]).astype(complex))

    def test_rejects_nonhermitian(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NonHermitian):
            DensityMatrix(m)

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            DensityMatrix(np.diag([1.2, -0.2]).astype(complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(DimensionMismatch):
            DensityMatrix(np.diag([0.6, 0.6]).astype(complex))

    def test_pure_normalizes(self):
        rho = DensityMatrix.pure([2.0, 0.0])
        assert abs(rho.mat[0, 0] - 1) < 1e-12

    @pytest.mark.parametrize(
        "bad, error",
        [
            ([[0.5, 0.1], [0.0, 0.5]], NonHermitian),
            ([[1.2, 0.0], [0.0, -0.2]], NotPSD),
            ([[0.6, 0.0], [0.0, 0.6]], DimensionMismatch),
        ],
    )
    def test_stack_check_rejects_one_bad_member(self, bad, error, rng):
        stack = np.array([random_density_matrix(2, r, rng).mat for r in (1, 2, 2, 1)])
        check_density(stack)
        stack[2] = bad
        with pytest.raises(error):
            check_density(stack)
        with pytest.raises(error):
            DensityMatrix(stack[2])


class TestSystemSpec:
    def test_diagonal(self):
        sys = SystemSpec.diagonal([0, 1, 3])
        assert sys.spectrum == (0, 1, 3)
        assert max_abs(sys.hamiltonian - np.diag([0.0, 1.0, 3.0])) < 1e-14

    def test_non_unitary_basis_refused(self):
        with pytest.raises(DimensionMismatch, match="unitary"):
            SystemSpec((0, 1), np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "entry",
        [1e300, -1e300, 2**53 + 2, -(2**53) - 1, 10**400],
        ids=["1e300", "-1e300", "2^53+2", "-2^53-1", "10^400"],
    )
    def test_oversized_entry_refused(self, entry):
        with pytest.raises(DimensionMismatch, match="2\\*\\*53"):
            SystemSpec.diagonal([0, entry])

    def test_largest_entry_accepted(self):
        assert SystemSpec.diagonal([-(2**53), 2**53]).spectrum == (-(2**53), 2**53)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        spectrum=st.lists(st.integers(-3, 3), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_generator_derived_from_spectrum_and_basis(self, spectrum, seed):
        rng = np.random.default_rng(seed)
        basis = random_unitary(len(spectrum), rng)
        sys = SystemSpec(tuple(spectrum), basis)
        eye = np.eye(len(spectrum))
        assert max_abs(np.linalg.eigvalsh(sys.hamiltonian) - sorted(spectrum)) <= 1e-9
        u = sys.translation(float(rng.uniform(-10.0, 10.0)))
        assert max_abs(u @ u.conj().T - eye) <= 1e-12
        assert max_abs(sys.translation(2 * math.pi) - eye) <= 1e-9
        with pytest.raises(DimensionMismatch, match="unitary"):
            SystemSpec(tuple(spectrum), basis * (1 + 1e-6))

    def test_translation_periodic(self):
        sys = SystemSpec.diagonal([0, 1, 2])
        u = sys.translation(2 * math.pi)
        assert max_abs(u - np.eye(3)) < 1e-12

    def test_tensor_system_spectrum(self):
        joint = tensor_system(SystemSpec.diagonal([0, 1]), SystemSpec.diagonal([0, 1]))
        assert max_abs(joint.hamiltonian - np.diag([0.0, 1.0, 1.0, 2.0])) < 1e-12

    def test_cyclic_shift_moves_points(self):
        reg = cyclic_shift_system(3)
        u = reg.translation(2 * math.pi / 3)
        e0 = np.zeros(3, dtype=complex)
        e0[0] = 1.0
        shifted = u @ e0
        # lands on another configuration basis vector
        assert abs(max(np.abs(shifted)) - 1) < 1e-10
        assert np.argmax(np.abs(shifted)) != 0


class TestChannel:
    def test_identity_channel(self, rng):
        sys = SystemSpec.diagonal([0, 1])
        ch = Channel(sys, sys, choi_from_map(lambda m: m, 2, 2))
        rho = random_density_matrix(2, 2, rng)
        assert max_abs(apply_channel(ch, rho).mat - rho.mat) < 1e-12

    def test_depolarizing_constant(self, rng):
        sys = SystemSpec.diagonal([0, 1])
        ch = Channel(sys, sys, choi_from_map(lambda m: np.trace(m) * np.eye(2) / 2, 2, 2))
        rho = random_density_matrix(2, 2, rng)
        assert max_abs(apply_channel(ch, rho).mat - np.eye(2) / 2) < 1e-12

    def test_dephasing_kills_plus_coherence(self):
        sys = SystemSpec.diagonal([0, 1])
        ch = Channel(sys, sys, choi_from_map(lambda m: np.diag(np.diag(m)), 2, 2))
        plus = DensityMatrix.pure([1, 1])
        assert max_abs(apply_channel(ch, plus).mat - np.eye(2) / 2) < 1e-12

    def test_rejects_non_tp(self):
        sys = SystemSpec.diagonal([0, 1])
        with pytest.raises(InvalidChannel):
            Channel(sys, sys, choi_from_map(lambda m: 0.5 * m, 2, 2))

    def test_rejects_non_cp(self):
        sys = SystemSpec.diagonal([0, 1])
        with pytest.raises(InvalidChannel):
            Channel(sys, sys, choi_from_map(lambda m: m.T, 2, 2))  # transpose map

    def test_apply_preserves_trace_and_positivity(self, rng):
        # 500 random (channel, state) pairs via the independent Stinespring route
        for _ in range(500):
            d_in = int(rng.integers(2, 4))
            d_out = int(rng.integers(2, 4))
            sys_in = random_integer_system(d_in, rng)
            sys_out = random_integer_system(d_out, rng)
            ch = Channel(sys_in, sys_out, random_choi(d_in, d_out, rng))
            rho = random_density_matrix(d_in, int(rng.integers(1, d_in + 1)), rng)
            out = apply_channel(ch, rho)  # DensityMatrix validation enforces both
            assert abs(np.trace(out.mat).real - 1) < 1e-9

    def test_dimension_mismatch(self, rng):
        sys = SystemSpec.diagonal([0, 1])
        ch = Channel(sys, sys, choi_from_map(lambda m: m, 2, 2))
        with pytest.raises(DimensionMismatch):
            apply_channel(ch, DensityMatrix.maximally_mixed(3))

    def test_apply_choi_reads_dimensions_off_its_arguments(self, rng):
        sys_in, sys_out = SystemSpec.diagonal([0, 1]), SystemSpec.diagonal([0, 1, 2])
        ch = Channel(sys_in, sys_out, random_choi(2, 3, rng))
        rho = random_density_matrix(2, 2, rng)
        out = apply_choi(ch.choi, rho.mat)
        assert out.shape == (3, 3)
        assert max_abs(out - apply_channel(ch, rho).mat) == 0.0
        # a Choi side that is not a multiple of the input side used to
        # fail in the reshape with a bare ValueError
        with pytest.raises(DimensionMismatch):
            apply_choi(ch.choi, np.eye(4))


class TestInduceChannel:
    def _swap_channel(self):
        qub = SystemSpec.diagonal([0, 1])
        joint = tensor_system(qub, qub)
        swap = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        return Channel(joint, joint, choi_from_map(lambda m: swap @ m @ swap.conj().T, 4, 4)), qub

    def test_swap_induces_constant(self, rng):
        lam, qub = self._swap_channel()
        rho_q = random_density_matrix(2, 2, rng)
        induced = induce_channel(lam, rho_q, qub)
        probe = random_density_matrix(2, 1, rng)
        assert max_abs(apply_channel(induced, probe).mat - rho_q.mat) < 1e-12

    def test_identity_induces_identity(self, rng):
        qub = SystemSpec.diagonal([0, 1])
        joint = tensor_system(qub, qub)
        lam = Channel(joint, joint, choi_from_map(lambda m: m, 4, 4))
        induced = induce_channel(lam, random_density_matrix(2, 2, rng), qub)
        probe = random_density_matrix(2, 2, rng)
        assert max_abs(apply_channel(induced, probe).mat - probe.mat) < 1e-12

    def test_dephase_on_first_factor_traced_out(self, rng):
        qub = SystemSpec.diagonal([0, 1])
        joint = tensor_system(qub, qub)

        def dephase_q(m):
            m4 = m.reshape(2, 2, 2, 2)
            out = m4.copy()
            out[0, :, 1, :] = 0
            out[1, :, 0, :] = 0
            return out.reshape(4, 4)

        lam = Channel(joint, joint, choi_from_map(dephase_q, 4, 4))
        induced = induce_channel(lam, random_density_matrix(2, 2, rng), qub)
        probe = random_density_matrix(2, 2, rng)
        assert max_abs(apply_channel(induced, probe).mat - probe.mat) < 1e-12

    def test_dimension_mismatch(self, rng):
        lam, qub = self._swap_channel()
        with pytest.raises(DimensionMismatch):
            induce_channel(lam, DensityMatrix.maximally_mixed(3), qub)
        with pytest.raises(DimensionMismatch):
            induce_channel(lam, DensityMatrix.maximally_mixed(2), SystemSpec.diagonal([0, 1, 2]))
        # lam must act on Q (x) S onto itself
        onto = tensor_system(qub, SystemSpec.diagonal([0, 1, 2]))
        widen = Channel(lam.input, onto, random_choi(4, 6, rng))
        with pytest.raises(DimensionMismatch):
            induce_channel(widen, DensityMatrix.maximally_mixed(2), qub)


class TestSerialization:
    def test_matrix_round_trip(self, rng):
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
        assert np.array_equal(back, m)

    def test_matrix_rejects_bad_shapes(self):
        with pytest.raises(ParseError):
            matrix_from_json({"rows": 2, "cols": 2, "re": [1, 0, 0], "im": [0, 0, 0, 0]})
        with pytest.raises(ParseError):
            matrix_from_json({"rows": 2, "cols": 2, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0], "extra": 1})

    def test_system_round_trip_computational(self):
        sys = SystemSpec.diagonal([0, 2, 3])
        back = system_from_json(json.loads(json.dumps(system_to_json(sys))))
        assert back.spectrum == sys.spectrum
        assert max_abs(back.hamiltonian - sys.hamiltonian) < 1e-12

    def test_system_round_trip_general_basis(self, rng):
        sys = random_integer_system(3, rng)
        back = system_from_json(json.loads(json.dumps(system_to_json(sys))))
        assert back.spectrum == sys.spectrum
        assert max_abs(back.hamiltonian - sys.hamiltonian) < 1e-9

    def test_system_rejects_non_integer_spectrum(self):
        with pytest.raises(ParseError):
            system_from_json({"dim": 2, "spectrum": [0, 1.5]})

    def test_system_accepts_integral_float_spectrum(self):
        sys = system_from_json({"dim": 2, "spectrum": [0, 1.0]})
        assert sys.spectrum == (0, 1) and all(type(s) is int for s in sys.spectrum)
