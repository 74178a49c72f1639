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

CovarianceSector holds this sector structure once per pair of systems,
with the one block layout of covariant Choi matrices that the projection
in optimize reads.

Note on the group: the measures and predicates here are defined for
translations over the whole real line, but with integer spectra every
statement is 2*pi-periodic, so all checks are carried out on the compact
closure of the group.  No result in this package is sensitive to the
distinction; tests are stated on the compact group.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, Singular
from .linalg import (
    commutator,
    dagger,
    fidelity_arrays,
    hermitian_function,
    max_abs,
    psd_sqrt,
    tensor_product,
)
from .qtypes import Channel, DensityMatrix, SystemSpec

__all__ = [
    "SymmetryVerdict",
    "CovarianceSector",
    "time_translate",
    "is_symmetric_state",
    "is_covariant_channel",
    "twirl_channel",
    "twirl_state",
    "random_covariant_channel",
    "measure_ft",
    "skew_information",
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
    of its column i: sector-basis index a * d_in + b carries
    out_spectrum[a] - in_spectrum[b].  generator, same_sector and blocks
    are built on first use.  for_channel returns one shared instance per
    pair of systems, so its arrays are read-only.
    """

    out_sys: SystemSpec
    in_sys: SystemSpec
    basis: np.ndarray
    labels: np.ndarray

    @classmethod
    @lru_cache(maxsize=32)
    def for_channel(cls, out_sys: SystemSpec, in_sys: SystemSpec) -> "CovarianceSector":
        # SystemSpec hashes by identity; the cache keeps each pair alive, so
        # a recycled id cannot hit a stale entry.
        # H_in^T = conj(H_in) has eigenbasis conj(V_in) with the same spectrum.
        basis = tensor_product(out_sys.eigenbasis, np.conj(in_sys.eigenbasis))
        labels = np.subtract.outer(out_sys.spectrum, in_sys.spectrum).ravel().astype(np.int64)
        for arr in (basis, labels):
            arr.setflags(write=False)
        return cls(out_sys, in_sys, basis, labels)

    @cached_property
    def generator(self) -> np.ndarray:
        do, di = self.out_sys.dim, self.in_sys.dim
        k = tensor_product(self.out_sys.hamiltonian, np.eye(di)) - tensor_product(
            np.eye(do), self.in_sys.hamiltonian.T
        )
        k.setflags(write=False)
        return k

    @cached_property
    def same_sector(self) -> np.ndarray:
        """Mask of the sector-basis entries (i, j) with labels[i] == labels[j]."""
        mask = self.labels[:, None] == self.labels[None, :]
        mask.setflags(write=False)
        return mask

    @cached_property
    def blocks(self) -> tuple[np.ndarray, tuple[tuple, ...]]:
        """(Tr E_k, groups): the block layout of covariant Choi matrices.

        E_k is an orthonormal basis of the Hermitian matrices that commute
        with diag(in spectrum).  Each group stacks the eigenvalue sectors of
        K of one block size m, in the order the sizes first occur among the
        sorted labels.  A larger group is (flat, e, conj(e)): the flat
        indices (g, m*m) of its blocks in a Choi matrix in the sector
        basis, and the restrictions (g, n, m, m) of I (x) E_k to them.  The
        1x1 sectors are one group (flat (G,), level (G,), None): the
        restriction of I (x) E_k to the sector of sector-basis index
        a * d_in + b is the diagonal entry E_k[b, b], which is 1 for the k
        of the unit |b><b| and 0 for every other k.  level holds that k,
        so E = eye(n)[level] is the group's (G, n) matrix.
        """
        spec = self.in_sys.spectrum
        di = len(spec)
        units, diagonal = [], []  # diagonal[b] is the k of the unit |b><b|
        for b in range(di):
            unit = np.zeros((di, di), dtype=np.complex128)
            unit[b, b] = 1.0
            diagonal.append(len(units))
            units.append(unit)
            for c in range(b + 1, di):
                if spec[b] == spec[c]:
                    for phase in (1.0, 1j):
                        unit = np.zeros((di, di), dtype=np.complex128)
                        unit[b, c] = phase * np.sqrt(0.5)
                        unit[c, b] = np.conj(unit[b, c])
                        units.append(unit)
        units = np.array(units)
        by_size = {}
        for lab in np.unique(self.labels):
            idx = np.flatnonzero(self.labels == lab)
            by_size.setdefault(idx.size, []).append(idx)
        groups = []
        for members in by_size.values():
            if members[0].size == 1:
                idx = np.concatenate(members)
                groups.append((idx * (self.labels.size + 1), np.array(diagonal)[idx % di], None))
                continue
            flats, es = [], []
            for idx in members:
                a, b = np.divmod(idx, di)
                es.append(units[:, b[:, None], b[None, :]] * (a[:, None] == a[None, :]))
                flats.append((idx[:, None] * self.labels.size + idx[None, :]).ravel())
            e = np.array(es)
            groups.append((np.array(flats), e, e.conj()))
        tr_e = np.real(np.trace(units, axis1=1, axis2=2))
        for arr in [tr_e] + [arr for group in groups for arr in group if arr is not None]:
            arr.setflags(write=False)
        return tr_e, tuple(groups)

    def dephase(self, j: np.ndarray) -> np.ndarray:
        """Zero all matrix elements between distinct eigenvalue sectors of K."""
        jt = dagger(self.basis) @ j @ self.basis
        return self.basis @ (jt * self.same_sector) @ dagger(self.basis)


def time_translate(rho: DensityMatrix, sys: SystemSpec, t: float) -> DensityMatrix:
    """Conjugation by e^{-iHt}, computed exactly in the stored eigenbasis."""
    if rho.dim != sys.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != system dim {sys.dim}")
    u = sys.translation(t)
    return DensityMatrix(u @ rho.mat @ dagger(u))


_SYMMETRIC_STATE_TOL = 1e-9  # largest |[rho, H]| entry of a symmetric state
_COVARIANT_CHANNEL_TOL = 1e-8  # largest |[choi, K]| entry of a covariant channel


def is_symmetric_state(rho: DensityMatrix, sys: SystemSpec) -> SymmetryVerdict:
    """True iff rho commutes with the generator; witness is max |[rho, H]| entry."""
    if rho.dim != sys.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != system dim {sys.dim}")
    witness = max_abs(commutator(rho.mat, sys.hamiltonian))
    return SymmetryVerdict(witness <= _SYMMETRIC_STATE_TOL, witness)


def is_covariant_channel(ch: Channel) -> SymmetryVerdict:
    """Covariance test on the Choi matrix: witness is max |[choi, K]| entry."""
    sec = CovarianceSector.for_channel(ch.output, ch.input)
    witness = max_abs(commutator(ch.choi, sec.generator))
    return SymmetryVerdict(witness <= _COVARIANT_CHANNEL_TOL, witness)


def twirl_channel(ch: Channel) -> Channel:
    """Group average of a channel over translations (exact sector dephasing).

    Fixes covariant channels, is idempotent, and always returns a channel
    that passes is_covariant_channel.
    """
    sec = CovarianceSector.for_channel(ch.output, ch.input)
    j = sec.dephase(ch.choi)
    j = (j + dagger(j)) / 2
    return Channel(ch.input, ch.output, j)


# A preparation channel's input; one instance, as for_channel caches by identity.
_ONE_LEVEL = SystemSpec.diagonal([0])


def twirl_state(rho: DensityMatrix, sys: SystemSpec) -> DensityMatrix:
    """Dephase a state across distinct eigenvalue sectors of the generator.

    The state is dephased as the Choi matrix of its preparation channel.
    """
    if rho.dim != sys.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != system dim {sys.dim}")
    out = CovarianceSector.for_channel(sys, _ONE_LEVEL).dephase(rho.mat)
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
        try:
            x_inv_root = hermitian_function(x, _regular_inv_sqrt)
        except Singular:
            continue
        factor = tensor_product(np.eye(do), x_inv_root)
        j = factor @ j0 @ factor
        j = (j + dagger(j)) / 2
        return Channel(in_sys, out_sys, j)
    raise Singular("normalization marginal stayed singular after 100 draws")


def _regular_inv_sqrt(w: np.ndarray) -> np.ndarray:
    if w[0] < 1e-8:
        raise Singular("normalization marginal is near singular")
    return 1.0 / np.sqrt(w)


def measure_ft(rho: DensityMatrix, sys: SystemSpec, t: float) -> float:
    """Fidelity-shift asymmetry: 1 - Fid(rho, e^{-iHt} rho e^{iHt}), in [0, 1].

    Vanishes on symmetric states and is non-increasing under covariant
    channels for every t.
    """
    shifted = time_translate(rho, sys, t)
    val = 1.0 - fidelity_arrays(rho.mat, shifted.mat)
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
