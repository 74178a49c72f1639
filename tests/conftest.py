"""Shared helpers: independent constructions used as test oracles.

random_channel builds CPTP maps from Stinespring isometries, a route
that never touches the package's Choi plumbing, so channel tests check
two independent constructions against each other.
"""
import numpy as np
import pytest

from asymmbench.qtypes import DensityMatrix, StateFamily, SystemSpec, random_density_matrix


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
    basis = random_unitary(len(spectrum), rng)
    h = (basis * np.array(spectrum, dtype=np.complex128)) @ np.conj(basis.T)
    return SystemSpec(len(spectrum), h, tuple(spectrum), basis)


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
    return StateFamily(tuple(states), labels), sorted(blocks)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
