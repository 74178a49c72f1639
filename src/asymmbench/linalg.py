"""Dense complex linear algebra primitives.

Everything here works on plain complex ndarrays; the quantum object
layer (states, systems, channels) lives in qtypes.  Matrices are always
row-major, with the first tensor factor slow-varying, matching np.kron.
"""
from __future__ import annotations

import math
from itertools import permutations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BadIndex,
    DimensionMismatch,
    NoConvergence,
    NonFinite,
    NonHermitian,
    NotPSD,
    SizeCap,
)
from .tolerances import TOL_RANK, TOL_STRUCT

__all__ = [
    "as_complex",
    "max_abs",
    "dagger",
    "commutator",
    "hermitian_eig",
    "hermitian_function",
    "psd_sqrt",
    "trace_norm",
    "fidelity_arrays",
    "partial_trace",
    "tensor_product",
    "factor_permutations",
    "symmetric_subspace_projector",
    "maximally_entangled_vec",
    "hilbert_schmidt_inner",
]


def as_complex(m) -> np.ndarray:
    return np.asarray(m, dtype=np.complex128)


def max_abs(m: np.ndarray) -> float:
    return float(np.abs(m).max(initial=0.0))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.swapaxes(-1, -2).conj()


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def hilbert_schmidt_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(a† b)."""
    return complex(np.sum(np.conj(a) * b))


def _require_square(m: np.ndarray) -> np.ndarray:
    m = as_complex(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def _require_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise NonFinite("matrix contains NaN or Inf entries")


def _max_abs_each(m: np.ndarray) -> np.ndarray:
    """Largest entry modulus of a matrix, or of each matrix in a stack."""
    return np.abs(m).max(axis=(-2, -1), initial=0.0)


def _unstack(x: np.ndarray) -> float | np.ndarray:
    """A Python float for a single matrix's value, the array for a stack's."""
    return float(x) if np.ndim(x) == 0 else x


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a stack.

    Returns (eigenvalues ascending, eigenvectors as columns of a unitary)
    with m = V diag(w) V†; for a stack of shape (..., d, d) the results
    have shapes (..., d) and (..., d, d).  Every member must be finite and
    Hermitian to TOL_STRUCT relative to its own largest entry.  Degenerate
    eigenvalues come with an arbitrary orthonormal basis of the
    eigenspace; callers must not rely on the basis choice inside a
    degenerate block.
    """
    m = _require_square(m)
    _require_finite(m)
    dev = _max_abs_each(m - dagger(m))
    bad = dev > TOL_STRUCT * (1.0 + _max_abs_each(m))
    if bad.any():
        worst = float(np.max(np.where(bad, dev, 0.0)))
        raise NonHermitian(f"matrix is not Hermitian (deviation {worst:.3e})")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(f"eigensolver did not converge: {exc}") from exc
    return w, v


def hermitian_function(m: np.ndarray, f, cutoff: float | None = None) -> np.ndarray:
    """V f(w) V† for a Hermitian m = V diag(w) V†, from one eigendecomposition.

    f maps eigenvalues to values and may raise.  With a cutoff, an
    eigenvalue below -TOL_STRUCT * (1 + the largest of its matrix) raises
    NotPSD, and only those at or above the cutoff reach f, as one flat
    array; the rest map to 0.  Without one, f gets the ascending
    eigenvalue array, of shape (..., d) for a stack.  A stack is mapped
    matrix by matrix, so with a cutoff f must act elementwise.
    """
    w, v = hermitian_eig(m)
    if cutoff is not None:
        if w.shape[-1]:
            lowest = w[..., 0]
            low = lowest < -TOL_STRUCT * (1.0 + np.maximum(w[..., -1], 0.0))
            if low.any():
                worst = float(np.min(np.where(low, lowest, 0.0)))
                raise NotPSD(f"minimum eigenvalue {worst:.3e} below -{TOL_STRUCT:g}")
        keep = w >= cutoff
        fw = np.zeros(w.shape)
        fw[keep] = f(w[keep])
    else:
        fw = f(w)
    return (v * fw[..., None, :]) @ dagger(v)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Positive-semidefinite square root of a matrix or of each matrix in a stack.

    See hermitian_function for the PSD check and the rank cutoff.
    """
    return hermitian_function(m, np.sqrt, TOL_RANK)


def trace_norm(m: np.ndarray) -> float | np.ndarray:
    """Sum of singular values: a float, or an array of shape (...) for a stack."""
    m = _require_square(m)
    _require_finite(m)
    return _unstack(np.linalg.svd(m, compute_uv=False).sum(axis=-1))


def fidelity_arrays(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Uhlmann fidelity ||sqrt(a) sqrt(b)||_1, clamped to [0, 1].

    Takes raw PSD Hermitian arrays of equal shape, single matrices or
    stacks that pair up member by member; the typed wrapper in qtypes
    validates density matrices first.
    """
    a = _require_square(a)
    b = _require_square(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"fidelity of {a.shape} vs {b.shape}")
    return _unstack(np.clip(trace_norm(psd_sqrt(a) @ psd_sqrt(b)), 0.0, 1.0))


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all tensor factors not listed in keep.

    dims gives the factor dimensions in slow-to-fast (kron) order; the
    result acts on the kept factors in their original order.
    """
    m = _require_square(m)
    dims = [int(d) for d in dims]
    if any(d <= 0 for d in dims):
        raise DimensionMismatch(f"factor dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if m.shape[0] != total:
        raise DimensionMismatch(
            f"matrix dimension {m.shape[0]} != product of factors {total}"
        )
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise BadIndex("keep set is empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise BadIndex(f"keep indices {keep} out of range for {n} factors")
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    it = iter(letters)
    row, col, out_row, out_col = [], [], [], []
    for f in range(n):
        if f in keep:
            r, c = next(it), next(it)
            row.append(r)
            col.append(c)
            out_row.append(r)
            out_col.append(c)
        else:
            s = next(it)
            row.append(s)
            col.append(s)
    sub = "".join(row) + "".join(col) + "->" + "".join(out_row) + "".join(out_col)
    reduced = np.einsum(sub, m.reshape(dims + dims))
    kept_dim = int(np.prod([dims[f] for f in keep]))
    return reduced.reshape(kept_dim, kept_dim)


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor slow-varying."""
    a, b = as_complex(a), as_complex(b)
    _require_finite(a)
    _require_finite(b)
    return np.kron(a, b)


def factor_permutations(d: int, n: int) -> Iterator[np.ndarray]:
    """Index maps of the n! permutations of the factors of (C^d)^{\\otimes n}.

    Yields one array per permutation: the permutation operator sends
    basis vector i to basis vector target[i].
    """
    digits = np.array(np.unravel_index(np.arange(d**n), (d,) * n))  # (n, d^n)
    for perm in permutations(range(n)):
        yield np.ravel_multi_index(tuple(digits[list(perm), :]), (d,) * n)


def symmetric_subspace_projector(d: int, n: int) -> np.ndarray:
    """Projector onto the permutation-symmetric subspace of (C^d)^{\\otimes n}.

    Built as the average of all n! permutation operators; trace equals
    binomial(d + n - 1, n).
    """
    d, n = int(d), int(n)
    if d < 1 or n < 1:
        raise DimensionMismatch("d and n must be positive")
    if n > 5 or d**n > 4096:
        raise SizeCap(f"symmetric projector capped at n <= 5 and d^n <= 4096 (got d={d}, n={n})")
    dim = d**n
    proj = np.zeros((dim, dim), dtype=np.complex128)
    src = np.arange(dim)
    for target in factor_permutations(d, n):
        proj[target, src] += 1.0
    return proj / math.factorial(n)


def maximally_entangled_vec(d: int) -> np.ndarray:
    """(1/sqrt(d)) sum_i |ii> on C^d x C^d."""
    d = int(d)
    if d < 1:
        raise DimensionMismatch("d must be positive")
    vec = np.zeros(d * d, dtype=np.complex128)
    vec[np.arange(d) * d + np.arange(d)] = 1.0 / math.sqrt(d)
    return vec
