"""Quantum object layer: states, labeled systems, and channels.

Conventions used throughout the package:

* A system is an integer spectrum and a unitary eigenbasis; its
  translation generator (Hermitian "hamiltonian") is derived from them.
* Channels are kept in Choi form with the OUTPUT factor first:
  choi = sum_{ij} E(|i><j|) (x) |i><j|, unnormalized (trace = input dim).
  Trace preservation is then the affine condition Tr_out(choi) = I, and
  applying the channel is the single contraction
  E(rho) = Tr_in[choi (I_out (x) rho^T)].
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidChannel, NonHermitian, NotPSD
from .linalg import (
    as_complex,
    dagger,
    max_abs,
    partial_trace,
    tensor_product,
)
from .tolerances import TOL_STRUCT

__all__ = [
    "DensityMatrix",
    "check_density",
    "normalized_gram",
    "SystemSpec",
    "Channel",
    "StateFamily",
    "apply_channel",
    "induce_channel",
    "choi_from_map",
    "random_density_matrix",
    "tensor_system",
    "cyclic_shift_system",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=np.complex128, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A quantum state: Hermitian, PSD, unit trace within TOL_STRUCT."""

    mat: np.ndarray

    def __post_init__(self):
        m = _readonly(self.mat)
        if m.ndim != 2:
            raise DimensionMismatch(f"density matrix must be square, got {m.shape}")
        check_density(m)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def pure(cls, vec: Sequence[complex]) -> "DensityMatrix":
        v = as_complex(vec).ravel()
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, np.conj(v)))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=np.complex128) / dim)


def check_density(m: np.ndarray) -> None:
    """Raise unless m, or each matrix of a stack m, is a state within TOL_STRUCT.

    A state is square, Hermitian, PSD and of unit trace; the error names
    the worst member of a stack.
    """
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"density matrix must be square, got {m.shape}")
    mh = dagger(m)
    dev = max_abs(m - mh)
    if dev > TOL_STRUCT:
        raise NonHermitian(f"state deviates from Hermitian by {dev:.3e}")
    lowest = np.linalg.eigvalsh((m + mh) / 2).min(initial=np.inf)
    if lowest < -TOL_STRUCT:
        raise NotPSD(f"state has eigenvalue {lowest:.3e}")
    tr = m.trace(0, -2, -1)
    off = abs(tr - 1.0)
    if not (off <= TOL_STRUCT).all():
        worst = complex(np.ravel(tr)[np.argmax(off)])
        raise DimensionMismatch(f"state trace {worst:.12f} != 1")


def normalized_gram(g: np.ndarray) -> np.ndarray:
    """G G† / Tr(G G†) for a matrix G."""
    m = g @ dagger(g)
    return m / m.trace().real


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """A labeled system: integer spectrum plus unitary eigenbasis V.

    The generator H = V diag(spectrum) V† is derived.  An integer spectrum
    makes the translation group compact with period 2*pi, so twirling and
    covariance checks are exact sector operations, not numerical averages
    over the group; V unitary within TOL_STRUCT makes e^{-iHt} unitary.
    Entries are at most 2**53 in magnitude, beyond which a float64 cannot
    tell neighbouring integers apart.
    """

    spectrum: tuple[int, ...]
    eigenbasis: np.ndarray

    def __post_init__(self):
        if any(abs(s) > 2**53 or abs(float(s) - round(float(s))) > 1e-9 for s in self.spectrum):
            raise DimensionMismatch("spectrum entries must be integers of magnitude at most 2**53")
        spec = tuple(int(round(s)) for s in self.spectrum)
        v = _readonly(self.eigenbasis)
        d = len(spec)
        if v.shape != (d, d):
            raise DimensionMismatch(f"eigenbasis {v.shape} does not fit {d} eigenvalues")
        dev = max_abs(dagger(v) @ v - np.eye(d))
        if dev > TOL_STRUCT:
            raise DimensionMismatch(f"eigenbasis deviates from unitary by {dev:.3e}")
        object.__setattr__(self, "spectrum", spec)
        object.__setattr__(self, "eigenbasis", v)

    @property
    def dim(self) -> int:
        return len(self.spectrum)

    @cached_property
    def hamiltonian(self) -> np.ndarray:
        v = self.eigenbasis
        h = (v * np.array(self.spectrum, dtype=np.complex128)) @ dagger(v)
        h.setflags(write=False)
        return h

    @classmethod
    def diagonal(cls, spectrum: Sequence[int]) -> "SystemSpec":
        spec = tuple(spectrum)
        return cls(spec, np.eye(len(spec)))

    def translation(self, t: float) -> np.ndarray:
        """The unitary e^{-iHt}, exact in the stored eigenbasis."""
        phases = np.exp(-1j * np.array(self.spectrum, dtype=np.float64) * t)
        return (self.eigenbasis * phases) @ dagger(self.eigenbasis)


@dataclass(frozen=True, eq=False)
class Channel:
    """CPTP map in Choi form (output factor first, trace = input dim)."""

    input: SystemSpec
    output: SystemSpec
    choi: np.ndarray

    def __post_init__(self):
        j = _readonly(self.choi)
        di, do = self.input.dim, self.output.dim
        if j.shape != (do * di, do * di):
            raise DimensionMismatch(
                f"choi shape {j.shape} incompatible with {do}x{di} channel"
            )
        dev = max_abs(j - dagger(j))
        scale = 1.0 + max_abs(j)
        if dev > TOL_STRUCT * scale:
            raise InvalidChannel(f"choi deviates from Hermitian by {dev:.3e}")
        evals = np.linalg.eigvalsh((j + dagger(j)) / 2)
        if evals[0] < -TOL_STRUCT * scale:
            raise InvalidChannel(f"choi eigenvalue {evals[0]:.3e} (not CP)")
        marginal = partial_trace(j, [do, di], keep=[1])
        if max_abs(marginal - np.eye(di)) > TOL_STRUCT * scale:
            raise InvalidChannel(
                f"Tr_out(choi) deviates from identity by "
                f"{max_abs(marginal - np.eye(di)):.3e} (not TP)"
            )
        object.__setattr__(self, "choi", j)


@dataclass(frozen=True)
class StateFamily:
    """A finite family of equal-dimension states with string labels."""

    states: tuple[DensityMatrix, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.states:
            raise DimensionMismatch("state family is empty")
        if len(self.states) != len(self.labels):
            raise DimensionMismatch("labels and states differ in length")
        d = self.states[0].dim
        if any(s.dim != d for s in self.states):
            raise DimensionMismatch("family members have unequal dimensions")

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def average(self) -> np.ndarray:
        return sum(s.mat for s in self.states) / len(self.states)


def apply_choi(choi: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Raw channel application Tr_in[choi (I (x) m^T)] on an arbitrary matrix.

    The input dimension is m's side; the output dimension is choi's side
    over it.
    """
    m = as_complex(m)
    d_in = m.shape[0]
    d_out, rest = divmod(choi.shape[0], d_in)
    if rest:
        raise DimensionMismatch(f"choi side {choi.shape[0]} is not a multiple of input dim {d_in}")
    return np.einsum("aibj,ij->ab", choi.reshape(d_out, d_in, d_out, d_in), m)


def apply_channel(ch: Channel, rho: DensityMatrix) -> DensityMatrix:
    if rho.dim != ch.input.dim:
        raise DimensionMismatch(
            f"state dim {rho.dim} != channel input dim {ch.input.dim}"
        )
    return DensityMatrix(apply_choi(ch.choi, rho.mat))


def choi_from_map(fn: Callable[[np.ndarray], np.ndarray], d_in: int, d_out: int) -> np.ndarray:
    """Assemble the Choi matrix of a linear map given its action on matrix units."""
    j4 = np.zeros((d_out, d_in, d_out, d_in), dtype=np.complex128)
    for i in range(d_in):
        for j in range(d_in):
            unit = np.zeros((d_in, d_in), dtype=np.complex128)
            unit[i, j] = 1.0
            j4[:, i, :, j] = fn(unit)
    return j4.reshape(d_out * d_in, d_out * d_in)


def induce_channel(lam: Channel, rho_q: DensityMatrix, sys_s: SystemSpec) -> Channel:
    """Effective map on the second factor for a fixed first-factor state.

    For a channel on Q (x) S onto itself and a state rho_Q, returns the
    Choi form of sigma -> Tr_Q[lam(rho_Q (x) sigma)].
    """
    ds = sys_s.dim
    if lam.input.dim % ds or lam.output.dim != lam.input.dim:
        raise DimensionMismatch("the channel does not act on Q (x) S onto itself")
    dq = lam.input.dim // ds
    if rho_q.dim != dq:
        raise DimensionMismatch(f"first-factor state dim {rho_q.dim} != {dq}")
    j8 = lam.choi.reshape(dq, ds, dq, ds, dq, ds, dq, ds)
    # Row index (q', s', q, s), column index (q', s', q, s); trace out q'
    # and contract the q legs against rho_Q.
    j4 = np.einsum("pAqapBrb,qr->AaBb", j8, rho_q.mat)
    return Channel(sys_s, sys_s, j4.reshape(ds * ds, ds * ds))


def random_density_matrix(d: int, rank: int, rng: np.random.Generator) -> DensityMatrix:
    """Normalized G G† for a d x rank complex Gaussian G (deterministic per rng state)."""
    if not (1 <= rank <= d):
        raise DimensionMismatch(f"rank must be in [1, {d}], got {rank}")
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    return DensityMatrix(normalized_gram(g))


def tensor_system(a: SystemSpec, b: SystemSpec) -> SystemSpec:
    """Composite system with generator H_a (x) I + I (x) H_b."""
    spec = tuple(sa + sb for sa in a.spectrum for sb in b.spectrum)
    return SystemSpec(spec, tensor_product(a.eigenbasis, b.eigenbasis))


def cyclic_shift_system(n: int) -> SystemSpec:
    """Configuration register of n points whose translation is the cyclic shift.

    The generator is F† diag(0..n-1) F with F the discrete Fourier
    unitary, so e^{-iH 2*pi/n} shifts |j> -> |j+1 mod n|.  Point states
    |j><j| are asymmetric for this generator while the shift itself maps
    them onto each other.
    """
    n = int(n)
    k = np.arange(n)
    f = np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return SystemSpec(tuple(range(n)), dagger(f))
