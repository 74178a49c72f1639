"""Translation-group action, covariance predicates, twirls, and asymmetry measures.

Covariance of a channel is tested on its Choi matrix: with the Choi
convention of this package (output factor first), a channel commutes
with the translation action on inputs and outputs if and only if its
Choi matrix commutes with

    K = H_out (x) I_in - I_out (x) H_in^T.

Because all spectra are integer, K has integer spectrum and the group
average over translations is the exact dephasing of the Choi matrix
across distinct eigenvalue sectors of K.  The same dephasing normalizes
random covariant channels: for a sector-dephased PSD J0 with
X = Tr_out(J0), we have [X, H_in^T] = 0.  Why: [J0, K] = 0 gives
[J0, I (x) H_in^T] = [J0, H_out (x) I], and the partial trace over the
output factor of a commutator with an output-only operator vanishes, so
[X, H_in^T] = Tr_out[J0, I (x) H_in^T] = 0.  Hence I (x) X^{-1/2}
commutes with K and the normalized Choi stays covariant.

Note on the group: the measures and predicates here are defined for
translations over the whole real line, but with integer spectra every
statement is 2*pi-periodic, so all checks are carried out on the compact
closure of the group.  No result in this package is sensitive to the
distinction; tests are stated on the compact group.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, Singular
from .linalg import commutator, dagger, max_abs, psd_sqrt, tensor_product
from .qtypes import Channel, DensityMatrix, SystemSpec, fidelity, tensor_system

__all__ = [
    "SymmetryVerdict",
    "CovarianceSector",
    "time_translate",
    "is_symmetric_state",
    "dual_system",
    "is_covariant_channel",
    "twirl_channel",
    "twirl_state",
    "random_covariant_channel",
    "measure_ft",
    "skew_information",
    "product_ft_identity_check",
]


class SymmetryVerdict(NamedTuple):
    ok: bool
    witness: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=False)
class CovarianceSector:
    """Sector structure of the translation action on a Choi space.

    basis = V_out (x) conj(V_in) diagonalizes the generator
    K = H_out (x) I - I (x) H_in^T, and labels[i] is the integer eigenvalue
    of its column i.  sectors maps each eigenvalue of K to its orthogonal
    projector; the projectors are complete by construction.  generator and
    sectors are built on first use.
    """

    out_sys: SystemSpec
    in_sys: SystemSpec
    basis: np.ndarray
    labels: np.ndarray

    @classmethod
    def for_channel(cls, out_sys: SystemSpec, in_sys: SystemSpec) -> "CovarianceSector":
        # H_in^T = conj(H_in) has eigenbasis conj(V_in) with the same spectrum.
        basis = tensor_product(out_sys.eigenbasis, np.conj(in_sys.eigenbasis))
        labels = np.subtract.outer(out_sys.spectrum, in_sys.spectrum).ravel().astype(np.int64)
        return cls(out_sys, in_sys, basis, labels)

    @cached_property
    def generator(self) -> np.ndarray:
        do, di = self.out_sys.dim, self.in_sys.dim
        return tensor_product(self.out_sys.hamiltonian, np.eye(di)) - tensor_product(
            np.eye(do), self.in_sys.hamiltonian.T
        )

    @cached_property
    def sectors(self) -> dict[int, np.ndarray]:
        sectors = {}
        for lab in np.unique(self.labels):
            cols = self.basis[:, self.labels == lab]
            sectors[int(lab)] = cols @ dagger(cols)
        return sectors

    def dephase(self, j: np.ndarray) -> np.ndarray:
        """Zero all matrix elements between distinct eigenvalue sectors of K."""
        jt = dagger(self.basis) @ j @ self.basis
        mask = self.labels[:, None] == self.labels[None, :]
        return self.basis @ (jt * mask) @ dagger(self.basis)


def time_translate(rho: DensityMatrix, sys: SystemSpec, t: float) -> DensityMatrix:
    """Conjugation by e^{-iHt}, computed exactly in the stored eigenbasis."""
    if rho.dim != sys.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != system dim {sys.dim}")
    u = sys.translation(t)
    return DensityMatrix(u @ rho.mat @ dagger(u))


def is_symmetric_state(rho: DensityMatrix, sys: SystemSpec, tol: float = 1e-9) -> SymmetryVerdict:
    """True iff rho commutes with the generator; witness is max |[rho, H]| entry."""
    if rho.dim != sys.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != system dim {sys.dim}")
    witness = max_abs(commutator(rho.mat, sys.hamiltonian))
    return SymmetryVerdict(witness <= tol, witness)


def dual_system(sys: SystemSpec) -> SystemSpec:
    """Same dimension with generator -H^T (negated transpose, computational basis).

    With this choice the maximally entangled state on system (x) dual is
    invariant under simultaneous translations.
    """
    h = -sys.hamiltonian.T
    spec = tuple(-s for s in sys.spectrum)
    basis = np.conj(sys.eigenbasis)
    return SystemSpec(sys.dim, h, spec, basis)


def is_covariant_channel(ch: Channel, tol: float = 1e-9) -> SymmetryVerdict:
    """Covariance test on the Choi matrix: witness is max |[choi, K]| entry."""
    sec = CovarianceSector.for_channel(ch.output, ch.input)
    witness = max_abs(commutator(ch.choi, sec.generator))
    return SymmetryVerdict(witness <= tol, witness)


def twirl_channel(ch: Channel) -> Channel:
    """Group average of a channel over translations (exact sector dephasing).

    Fixes covariant channels, is idempotent, and always returns a channel
    that passes is_covariant_channel.
    """
    sec = CovarianceSector.for_channel(ch.output, ch.input)
    j = sec.dephase(ch.choi)
    j = (j + dagger(j)) / 2
    return Channel(ch.input, ch.output, j)


def twirl_state(rho: DensityMatrix, sys: SystemSpec) -> DensityMatrix:
    """Dephase a state across distinct eigenvalue sectors of the generator."""
    if rho.dim != sys.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != system dim {sys.dim}")
    v = sys.eigenbasis
    labels = np.array(sys.spectrum, dtype=np.int64)
    rt = dagger(v) @ rho.mat @ v
    mask = labels[:, None] == labels[None, :]
    out = v @ (rt * mask) @ dagger(v)
    return DensityMatrix((out + dagger(out)) / 2)


def random_covariant_channel(
    in_sys: SystemSpec, out_sys: SystemSpec, rng: np.random.Generator
) -> Channel:
    """Random covariant channel: dephased Ginibre Choi, normalized to TP.

    Sample J0 = G G†, dephase across K sectors, then normalize with
    X = Tr_out(J0) as J = (I (x) X^{-1/2}) J0 (I (x) X^{-1/2}); the
    module docstring explains why X commutes with H_in^T so the result
    stays covariant.  Resamples (up to 100 times) if X is near singular.
    """
    di, do = in_sys.dim, out_sys.dim
    dd = do * di
    sec = CovarianceSector.for_channel(out_sys, in_sys)
    for _ in range(100):
        g = rng.standard_normal((dd, dd)) + 1j * rng.standard_normal((dd, dd))
        j0 = sec.dephase(g @ dagger(g))
        j0 = (j0 + dagger(j0)) / 2
        x = np.einsum("aiaj->ij", j0.reshape(do, di, do, di))
        w, v = np.linalg.eigh(x)
        if w[0] < 1e-8:
            continue
        x_inv_root = (v / np.sqrt(w)) @ dagger(v)
        factor = tensor_product(np.eye(do), x_inv_root)
        j = factor @ j0 @ factor
        j = (j + dagger(j)) / 2
        return Channel(in_sys, out_sys, j)
    raise Singular("normalization marginal stayed singular after 100 draws")


def measure_ft(rho: DensityMatrix, sys: SystemSpec, t: float) -> float:
    """Fidelity-shift asymmetry: 1 - Fid(rho, e^{-iHt} rho e^{iHt}), in [0, 1].

    Vanishes on symmetric states and is non-increasing under covariant
    channels for every t.
    """
    shifted = time_translate(rho, sys, t)
    val = 1.0 - fidelity(rho, shifted)
    return float(min(1.0, max(0.0, val)))


def skew_information(rho: DensityMatrix, sys: SystemSpec) -> float:
    """Wigner-Yanase skew information -Tr([sqrt(rho), H]^2)/2.

    Equals the variance of H for pure states.  For rank-deficient states
    the square root clips eigenvalues below the rank cutoff; faithfulness
    (strict positivity on asymmetric states) is therefore only exercised
    in tests on full-rank perturbations (1-eps) rho + eps I/d.
    """
    if rho.dim != sys.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != system dim {sys.dim}")
    root = psd_sqrt(rho.mat)
    c = commutator(root, sys.hamiltonian)
    val = -0.5 * float(np.trace(c @ c).real)
    return max(0.0, val)


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
