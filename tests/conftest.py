"""Shared helpers: independent constructions used as test oracles.

random_channel builds CPTP maps from Stinespring isometries, a route
that never touches the package's Choi plumbing, so channel tests check
two independent constructions against each other.  petz_recovery, the
closed-form recovery the optimizer is compared against, and
product_ft_identity_check, the product rule of f_t, are references that
no run executes, so they live here rather than in the library.
"""
import numpy as np
import pytest

from asymmbench.errors import DimensionMismatch, Singular
from asymmbench.linalg import as_complex, dagger, hermitian_function, psd_sqrt, tensor_product
from asymmbench.qtypes import (
    Channel,
    DensityMatrix,
    StateFamily,
    SystemSpec,
    apply_choi,
    choi_from_map,
    random_density_matrix,
    tensor_system,
)
from asymmbench.symmetry import measure_ft
from asymmbench.tolerances import TOL_RANK

# petz_recovery ridges a near-singular prior by this much.
REG_EPS = 1e-10


def random_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_choi(d_in, d_out, rng, env=None):
    """Choi matrix of a random CPTP map via a Stinespring isometry."""
    env = env or d_in
    g = rng.standard_normal((d_out * env, d_in)) + 1j * rng.standard_normal(
        (d_out * env, d_in)
    )
    v, _ = np.linalg.qr(g)
    v3 = v.reshape(d_out, env, d_in)
    j4 = np.einsum("aei,bej->aibj", v3, np.conj(v3))
    return j4.reshape(d_out * d_in, d_out * d_in)


def integer_system(spectrum, rng):
    """System with the given integer spectrum in a random eigenbasis."""
    return SystemSpec(tuple(spectrum), random_unitary(len(spectrum), rng))


def random_integer_system(d, rng, span=2):
    spec = sorted(int(x) for x in rng.integers(-span, span + 1, size=d))
    return integer_system(spec, rng)


def random_structured_family(rng, d, n_states=3):
    """Family with a planted block structure; returns (family, sorted dims)."""
    while True:
        blocks = []
        rem = d
        while rem > 0:
            m = int(rng.integers(1, min(3, rem) + 1))
            k = int(rng.integers(1, rem // m + 1))
            blocks.append((m, k))
            rem -= m * k
        if sum(m * k for m, k in blocks) == d:
            break
    return planted_family(rng, blocks, n_states), sorted(blocks)


def planted_family(rng, blocks, n_states=3):
    """States (+)_mu p_mu(x) rho_L,mu(x) (x) omega_mu in a random frame.

    blocks lists the (m, k) of each planted block; generic draws make
    these the family's Koashi-Imoto block dimensions.
    """
    d = sum(m * k for m, k in blocks)
    q = random_unitary(d, rng)
    omegas = [random_density_matrix(k, k, rng).mat for _, k in blocks]
    states = []
    for _ in range(n_states):
        weights = rng.dirichlet(np.ones(len(blocks)))
        full = np.zeros((d, d), dtype=np.complex128)
        off = 0
        for w, (m, k), omega in zip(weights, blocks, omegas):
            left = random_density_matrix(m, m, rng).mat
            piece = w * np.kron(left, omega)
            full[off : off + m * k, off : off + m * k] = piece
            off += m * k
        states.append(DensityMatrix(q @ full @ np.conj(q.T)))
    labels = tuple(f"s{i}" for i in range(n_states))
    return StateFamily(tuple(states), labels)


def adjoint_apply_choi(choi: np.ndarray, d_out: int, d_in: int, y: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt adjoint of the channel, applied to y on the output space."""
    j4 = choi.reshape(d_out, d_in, d_out, d_in)
    return np.einsum("aibj,ab->ij", np.conj(j4), as_complex(y))


def petz_recovery(ch: Channel, prior: DensityMatrix) -> Channel:
    """Transpose channel of ch with respect to a prior state.

    X -> sqrt(prior) ch†( ch(prior)^{-1/2} X ch(prior)^{-1/2} ) sqrt(prior),
    assembled at the Choi level.  If ch(prior) is rank deficient the map
    is completed on the orthogonal complement by preparing the prior, so
    the result is always trace preserving.  Raises Singular when the
    prior itself is numerically singular beyond regularization.
    """
    if prior.dim != ch.input.dim:
        raise DimensionMismatch("prior dimension != channel input dimension")
    di, do = ch.input.dim, ch.output.dim
    prior_mat = prior.mat
    w = np.linalg.eigvalsh(prior_mat)
    if w[0] < REG_EPS:
        # The ridge shifts the spectrum by REG_EPS before the positive rescale.
        if w[0] + REG_EPS <= 0:
            raise Singular("prior has nonpositive eigenvalues after regularization")
        prior_mat = (prior_mat + REG_EPS * np.eye(di)) / (1.0 + di * REG_EPS)
    root_prior = psd_sqrt(prior_mat)
    out_state = apply_choi(ch.choi, do, di, prior_mat)
    out_state = (out_state + dagger(out_state)) / 2
    inv_root_out = hermitian_function(out_state, lambda wk: 1.0 / np.sqrt(wk), TOL_RANK)
    complement = np.eye(do) - hermitian_function(out_state, np.ones_like, TOL_RANK)

    def petz_map(x):
        core = root_prior @ adjoint_apply_choi(
            ch.choi, do, di, inv_root_out @ x @ inv_root_out
        ) @ root_prior
        leak = complex(np.trace(complement @ x))
        return core + leak * prior_mat

    j = choi_from_map(petz_map, do, di)
    j = (j + dagger(j)) / 2
    return Channel(ch.output, ch.input, j)


def product_ft_identity_check(
    psi: DensityMatrix,
    sigma: DensityMatrix,
    sys_a: SystemSpec,
    sys_b: SystemSpec,
    t: float,
) -> float:
    """Residual of the product rule for the fidelity-shift measure.

    For the joint generator H_a (x) I + I (x) H_b (noninteracting parts),
    the measure satisfies
    f_t(psi (x) sigma) = 1 - (1 - f_t(psi)) (1 - f_t(sigma)); returns the
    absolute deviation, used as a test oracle.
    """
    joint_sys = tensor_system(sys_a, sys_b)
    joint = DensityMatrix(tensor_product(psi.mat, sigma.mat))
    lhs = measure_ft(joint, joint_sys, t)
    rhs = 1.0 - (1.0 - measure_ft(psi, sys_a, t)) * (1.0 - measure_ft(sigma, sys_b, t))
    return abs(lhs - rhs)


def witness(assertions, name):
    """The witness of the one assertion called name."""
    [value] = [a.witness for a in assertions if a.name == name]
    return value


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
