"""Dense complex linear algebra primitives.

Everything here works on plain complex ndarrays; the quantum object
layer (states, systems, channels) lives in qtypes.  Matrices are always
row-major, with the first tensor factor slow-varying, matching np.kron.
"""
from __future__ import annotations

import math
from itertools import permutations
from typing import Iterable, Sequence

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
    "is_hermitian",
    "hermitian_eig",
    "psd_sqrt",
    "pinv_sqrt",
    "trace_norm",
    "trace_distance",
    "fidelity_arrays",
    "partial_trace",
    "tensor_product",
    "symmetric_subspace_projector",
    "maximally_entangled_vec",
    "hilbert_schmidt_inner",
]


def as_complex(m) -> np.ndarray:
    return np.asarray(m, dtype=np.complex128)


def max_abs(m: np.ndarray) -> float:
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


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
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _require_finite(m: np.ndarray) -> None:
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise NonFinite("matrix contains NaN or Inf entries")


def is_hermitian(m: np.ndarray, tol: float = TOL_STRUCT) -> bool:
    m = as_complex(m)
    return max_abs(m - dagger(m)) <= tol * (1.0 + max_abs(m))


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns of a unitary)
    with m = V diag(w) V†.  Degenerate eigenvalues come with an arbitrary
    orthonormal basis of the eigenspace; callers must not rely on the
    basis choice inside a degenerate block.
    """
    m = _require_square(m)
    _require_finite(m)
    if not is_hermitian(m):
        raise NonHermitian(
            f"matrix is not Hermitian (deviation {max_abs(m - dagger(m)):.3e})"
        )
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(f"eigensolver did not converge: {exc}") from exc
    return w, v


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Positive-semidefinite square root.

    Eigenvalues below the rank cutoff are clipped to zero before the
    square root; eigenvalues below -TOL_STRUCT raise NotPSD.
    """
    m = _require_square(m)
    w, v = hermitian_eig(m)
    scale = 1.0 + max(0.0, float(w[-1])) if w.size else 1.0
    if w.size and w[0] < -TOL_STRUCT * scale:
        raise NotPSD(f"minimum eigenvalue {w[0]:.3e} below -{TOL_STRUCT:g}")
    w = np.where(w < TOL_RANK, 0.0, w)
    return (v * np.sqrt(w)) @ dagger(v)


def pinv_sqrt(m: np.ndarray, cutoff: float = TOL_RANK) -> tuple[np.ndarray, np.ndarray, float]:
    """Inverse square root on the support of a PSD matrix.

    Returns (m^{-1/2} on support, support projector, condition number of
    the retained spectrum).  Eigenvalues <= cutoff are treated as exact
    zeros and excluded from inversion.
    """
    m = _require_square(m)
    w, v = hermitian_eig(m)
    scale = 1.0 + max(0.0, float(w[-1])) if w.size else 1.0
    if w.size and w[0] < -TOL_STRUCT * scale:
        raise NotPSD(f"minimum eigenvalue {w[0]:.3e} below -{TOL_STRUCT:g}")
    keep = w > cutoff
    if not np.any(keep):
        return np.zeros_like(m), np.zeros_like(m), float("inf")
    wk = w[keep]
    vk = v[:, keep]
    inv_root = (vk / np.sqrt(wk)) @ dagger(vk)
    support = vk @ dagger(vk)
    cond = float(wk[-1] / wk[0])
    return inv_root, support, cond


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    m = _require_square(m)
    _require_finite(m)
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2)||a - b||_1."""
    return 0.5 * trace_norm(as_complex(a) - as_complex(b))


def fidelity_arrays(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity ||sqrt(a) sqrt(b)||_1, clamped to [0, 1].

    Takes raw PSD Hermitian arrays of equal dimension; the typed wrapper
    in qtypes validates density matrices first.
    """
    a = _require_square(a)
    b = _require_square(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"fidelity of {a.shape} vs {b.shape}")
    val = trace_norm(psd_sqrt(a) @ psd_sqrt(b))
    return float(min(1.0, max(0.0, val)))


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
    digits = np.array(np.unravel_index(np.arange(dim), (d,) * n))  # (n, dim)
    proj = np.zeros((dim, dim), dtype=np.complex128)
    src = np.arange(dim)
    for perm in permutations(range(n)):
        target = np.ravel_multi_index(tuple(digits[list(perm), :]), (d,) * n)
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
