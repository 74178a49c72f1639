"""Numerical Koashi-Imoto decomposition of a finite state family.

Given states {rho_x} with average rho_bar, the decomposition splits the
support of rho_bar into a direct sum of tensor products
H = (+)_mu L_mu (x) R_mu such that every member factors as

    rho_x = (+)_mu p_mu(x) . rho_{L,mu}(x) (x) omega_mu

with a common per-block fixed state omega_mu.  The construction used
here: form transition operators T_x = rho_bar^{-1/2} rho_x rho_bar^{-1/2}
on the support, generate the *-algebra they span, and close it under
commutation with log(rho_bar) (conjugation by rho_bar^{it} preserves the
closed algebra, which is what forces the block components of rho_bar to
factor as a_L (x) omega).  Without that closure the bare transition
algebra fails to reproduce noncommuting families, so the closure is not
optional.  Correctness is never assumed: every decomposition is checked
against the reconstruction, isometry, completeness, and maximality
invariants before it is returned.

An independent refinement oracle (commutant splitting plus intertwiner
merging, d <= 6) cross-checks block dimensions in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CenterDegenerate,
    DecompositionInvalid,
    DimensionMismatch,
    NoConvergence,
    PreconditionFailed,
    RankCollapse,
    SizeCap,
)
from .linalg import (
    commutator,
    dagger,
    hermitian_eig,
    hilbert_schmidt_inner,
    max_abs,
    partial_trace,
    tensor_product,
    trace_norm,
)
from .qtypes import Channel, DensityMatrix, StateFamily, SystemSpec, apply_choi
from .symmetry import time_translate
from .tolerances import TOL_RANK

__all__ = [
    "KIBlock",
    "KIDecomposition",
    "generate_algebra",
    "wedderburn_decompose",
    "WedderburnBlock",
    "ki_decompose",
    "ki_refinement_oracle",
    "orbit_family",
    "ehrenfest_constancy_check",
    "lemma4_reduced_form_check",
    "ReducedFormResult",
]

_ALGEBRA_DIM_CAP = 64
_KI_DIM_CAP = 32
_ORACLE_DIM_CAP = 6


# ---------------------------------------------------------------------------
# *-algebra generation


def _project_out(v: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    for b in basis:
        v = v - hilbert_schmidt_inner(b, v) * b
    return v


def generate_algebra(gens: list[np.ndarray], tol: float = 1e-6) -> list[np.ndarray]:
    """Orthonormal Hilbert-Schmidt basis of the unital *-algebra of the generators.

    Closure under products and adjoints; the loop stops once a full
    product pass adds no new direction.  Dimension is bounded by d^2.

    The span is extracted per pass from the Gram matrix of unit-normalized
    candidates (identity, current basis, adjoints, pairwise products): a
    direction is kept when its Gram eigenvalue exceeds tol^2 times the
    largest.  Compared to incremental Gram-Schmidt this never normalizes
    a tiny residual, so floating-point junk cannot be amplified into a
    spurious basis direction.
    """
    if not gens:
        raise DimensionMismatch("no generators")
    d = gens[0].shape[0]
    if d > _ALGEBRA_DIM_CAP:
        raise SizeCap(f"algebra generation capped at dimension {_ALGEBRA_DIM_CAP}")
    for g in gens:
        if np.asarray(g).shape != (d, d):
            raise DimensionMismatch("generators have unequal dimensions")

    def span_of(cands: list[np.ndarray]) -> list[np.ndarray]:
        norms = [float(np.linalg.norm(c)) for c in cands]
        finite = [n for n in norms if np.isfinite(n)]
        floor = 1e-8 * max(1.0, max(finite) if finite else 1.0)
        gram = np.zeros((d * d, d * d), dtype=np.complex128)
        for c, nrm in zip(cands, norms):
            if not np.isfinite(nrm) or nrm <= floor:
                # numerically zero (e.g. a vanishing commutator); normalizing
                # it would promote floating-point junk to a basis direction
                continue
            v = c.ravel() / nrm
            gram += np.outer(v, np.conj(v))
        w, vecs = np.linalg.eigh(gram)
        cutoff = tol * tol * max(1.0, float(w[-1]))
        return [
            vecs[:, i].reshape(d, d) for i in range(d * d) if w[i] > cutoff
        ]

    seed = [np.eye(d, dtype=np.complex128)]
    for g in gens:
        g = np.asarray(g, dtype=np.complex128)
        seed.append(g)
        seed.append(dagger(g))
    basis = span_of(seed)

    passes = 0
    while True:
        if passes > d * d:
            raise NoConvergence("algebra closure did not stabilize")  # pragma: no cover
        cands = list(basis)
        cands.extend(dagger(a) for a in basis)
        cands.extend(a @ b for a in basis for b in basis)
        new_basis = span_of(cands)
        passes += 1
        if len(new_basis) == len(basis):
            return new_basis
        basis = new_basis


def _contains(basis: list[np.ndarray], m: np.ndarray, tol: float) -> bool:
    r = _project_out(m, basis)
    return np.linalg.norm(r) <= tol * (1.0 + np.linalg.norm(m))


def _hermitian_span(basis: list[np.ndarray]) -> list[np.ndarray]:
    """Real-orthonormal Hermitian spanning set of a *-closed complex span.

    The Hermitian part of an l-dimensional *-closed complex span has real
    dimension exactly l, so the basis is the top-l eigenvectors of the
    real Gram matrix of the (anti)Hermitian parts; no rank threshold is
    involved, which keeps numerical junk out by count.
    """
    ell = len(basis)
    d = basis[0].shape[0]
    gram = np.zeros((2 * d * d, 2 * d * d))
    for b in basis:
        for cand in ((b + dagger(b)) / 2, (b - dagger(b)) / 2j):
            # accumulate unnormalized: a near-zero part is then invisible
            # instead of being inflated into a junk direction
            vec = np.concatenate([cand.real.ravel(), cand.imag.ravel()])
            gram += np.outer(vec, vec)
    w, vecs = np.linalg.eigh(gram)
    out = []
    for i in range(2 * d * d - ell, 2 * d * d):
        re = vecs[: d * d, i].reshape(d, d)
        im = vecs[d * d :, i].reshape(d, d)
        h = re + 1j * im
        h = (h + dagger(h)) / 2
        out.append(h / np.linalg.norm(h))
    return out


def _cluster(values: np.ndarray, eps: float) -> list[np.ndarray]:
    """Group sorted value indices into clusters separated by gaps > eps."""
    order = np.argsort(values)
    groups: list[list[int]] = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] <= eps:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return [np.array(g) for g in groups]


def _cluster_count(values: np.ndarray, n_clusters: int) -> list[np.ndarray]:
    """Split sorted values into exactly n_clusters at the largest gaps.

    Used where the number of distinct eigenvalues is known a priori (a
    generic element of an l-dimensional commutative algebra has exactly l
    of them), which avoids any threshold on the within-cluster noise.
    """
    order = np.argsort(values)
    if n_clusters <= 1 or len(order) <= n_clusters:
        if n_clusters >= len(order):
            return [np.array([i]) for i in order]
        return [order]
    gaps = np.diff(values[order])
    boundaries = np.sort(np.argsort(gaps)[-(n_clusters - 1):])
    groups = []
    start = 0
    for b in boundaries:
        groups.append(order[start : b + 1])
        start = b + 1
    groups.append(order[start:])
    return groups


# ---------------------------------------------------------------------------
# Wedderburn block structure of a *-algebra


@dataclass(frozen=True, eq=False)
class WedderburnBlock:
    """One ideal of the algebra: projector, factorizing isometry, and (m, k)."""

    projector: np.ndarray
    isometry: np.ndarray
    m: int
    k: int


def wedderburn_decompose(
    algebra_basis: list[np.ndarray], tol: float = 1e-9
) -> list[WedderburnBlock]:
    """Block structure {Pi_mu, V_mu, (m_mu, k_mu)} of a unital *-algebra.

    Central projectors come from a generic Hermitian element of the
    center; inside each block an isometry realizes the factorization
    A|_mu ~ M_m (x) I_k.  Degenerate generic elements are resampled up to
    five times before CenterDegenerate is raised.
    """
    if not algebra_basis:
        raise DimensionMismatch("empty algebra basis")
    d = algebra_basis[0].shape[0]
    rng = np.random.default_rng(20240 + len(algebra_basis) + d)

    # Precondition spot check: unital and closed under products/adjoints.
    if not _contains(algebra_basis, np.eye(d, dtype=np.complex128), 100 * tol):
        raise PreconditionFailed("basis does not span a unital algebra")
    n = len(algebra_basis)
    for _ in range(20):
        i, j = rng.integers(0, n, size=2)
        prod = algebra_basis[i] @ algebra_basis[j]
        if not _contains(algebra_basis, prod, 100 * tol):
            raise PreconditionFailed("basis is not closed under products")
        if not _contains(algebra_basis, dagger(algebra_basis[int(i)]), 100 * tol):
            raise PreconditionFailed("basis is not closed under adjoints")

    # Center: coefficient-space null space of x -> [sum x_k B_k, B_i].
    cols = []
    for b_k in algebra_basis:
        col = np.concatenate([commutator(b_k, b_i).ravel() for b_i in algebra_basis])
        cols.append(col)
    l_mat = np.array(cols).T  # (n*d*d, n)
    _, svals, vh = np.linalg.svd(l_mat, full_matrices=True)
    # The basis is orthonormal, so nontrivial commutators are O(1); an
    # absolute floor keeps commutative algebras (all svals ~ 0) intact.
    cutoff = 1e-8 * max(1.0, float(svals[0]) if svals.size else 1.0)
    null_mask = np.ones(n, dtype=bool)
    null_mask[: svals.size] = svals <= cutoff
    center = [
        sum(c * b for c, b in zip(np.conj(vh[idx]), algebra_basis))
        for idx in range(n)
        if null_mask[idx]
    ]
    center_h = _hermitian_span(center)
    if not center_h:
        raise PreconditionFailed("algebra has an empty center (identity missing?)")

    blocks: list[WedderburnBlock] = []
    last_err: Exception | None = None
    for _ in range(5):
        try:
            coeffs = rng.standard_normal(len(center_h))
            generic = sum(c * z for c, z in zip(coeffs, center_h))
            w, v = hermitian_eig(generic)
            spread = max(1.0, float(w[-1] - w[0]))
            # A generic element of the l-dimensional center has exactly l
            # distinct eigenvalues: split at the l-1 largest gaps.
            clusters = _cluster_count(w, len(center_h))
            means = [float(np.mean(w[c])) for c in clusters]
            for a in range(len(means)):
                for b in range(a + 1, len(means)):
                    if abs(means[a] - means[b]) < 10 * tol * spread:
                        raise CenterDegenerate(
                            f"central eigenvalues {means[a]:.3e} and {means[b]:.3e} too close"
                        )
            blocks = [
                _factor_block(algebra_basis, v[:, c], rng, tol) for c in clusters
            ]
            return blocks
        except CenterDegenerate as exc:
            last_err = exc
            continue
    raise CenterDegenerate(f"generic central element stayed degenerate: {last_err}")


def _factor_block(
    algebra_basis: list[np.ndarray],
    w_cols: np.ndarray,
    rng: np.random.Generator,
    tol: float,
) -> WedderburnBlock:
    """Realize one central block as M_m (x) I_k via an explicit isometry."""
    big_d = w_cols.shape[1]
    compressed = []
    for b in algebra_basis:
        c = dagger(w_cols) @ b @ w_cols
        if np.linalg.norm(c) > 1e-12:
            compressed.append(c)
    block_basis = generate_algebra(compressed)
    m_sq = len(block_basis)
    m = int(round(np.sqrt(m_sq)))
    if m * m != m_sq or big_d % m != 0:
        raise CenterDegenerate(
            f"block of size {big_d} has algebra dimension {m_sq}, not a square factor"
        )
    k = big_d // m
    herm = _hermitian_span(block_basis)

    for _ in range(5):
        h = sum(c * z for c, z in zip(rng.standard_normal(len(herm)), herm))
        w, v = hermitian_eig(h)
        # Generic h ~ h_L (x) I_k has exactly m distinct eigenvalues.
        clusters = _cluster_count(w, m)
        if len(clusters) != m or any(len(c) != k for c in clusters):
            continue
        g = sum(c * z for c, z in zip(rng.standard_normal(len(herm)), herm))
        u0 = v[:, clusters[0]]
        frames = [u0]
        ok = True
        for c in clusters[1:]:
            ua = v[:, c]
            b_a = dagger(ua) @ g @ u0  # proportional to a unitary, generically nonzero
            uu, ss, vvh = np.linalg.svd(b_a)
            if ss[-1] < 1e-9 * max(1.0, ss[0]):
                ok = False
                break
            frames.append(ua @ (uu @ vvh))
        if not ok:
            continue
        iso = np.zeros((big_d, m * k), dtype=np.complex128)
        for a, frame in enumerate(frames):
            iso[:, a * k : (a + 1) * k] = frame
        # Verify every element factors as g_L (x) I_k through this isometry.
        good = True
        for b in block_basis:
            mat = (dagger(iso) @ b @ iso).reshape(m, k, m, k)
            g_l = np.einsum("akbk->ab", mat) / k
            if max_abs(mat - np.einsum("ab,kl->akbl", g_l, np.eye(k))) > 1e3 * tol:
                good = False
                break
        if good:
            return WedderburnBlock(
                projector=w_cols @ dagger(w_cols),
                isometry=w_cols @ iso,
                m=m,
                k=k,
            )
    raise CenterDegenerate("block factorization failed after 5 generic draws")


# ---------------------------------------------------------------------------
# KI decomposition


@dataclass(frozen=True, eq=False)
class KIBlock:
    """One block: projector and isometry on the original space, dims, fixed state."""

    projector: np.ndarray
    isometry: np.ndarray
    m: int
    k: int
    omega: DensityMatrix


@dataclass(frozen=True, eq=False)
class KIDecomposition:
    blocks: tuple[KIBlock, ...]
    probs: np.ndarray  # (n_states, n_blocks), rows sum to 1
    labels: tuple[str, ...]
    l_states: tuple[tuple[np.ndarray, ...], ...]  # per state, per block

    @property
    def block_dims(self) -> list[tuple[int, int]]:
        return sorted((b.m, b.k) for b in self.blocks)


def _support_restrict(fam: StateFamily):
    avg = fam.average()
    w, v = hermitian_eig(avg)
    keep = w > TOL_RANK
    if not np.any(keep):
        raise RankCollapse("family average has empty support")
    wk = w[keep]
    if float(wk[-1] / wk[0]) > 1e12:
        raise RankCollapse(
            f"retained spectrum condition number {wk[-1] / wk[0]:.3e} exceeds 1e12"
        )
    w_iso = v[:, keep]
    hatted = [dagger(w_iso) @ s.mat @ w_iso for s in fam.states]
    return w_iso, np.asarray(wk), hatted


def _transition_operators(wk: np.ndarray, hatted: list[np.ndarray]) -> list[np.ndarray]:
    """rho_bar^{-1/2} rho_x rho_bar^{-1/2} on the support, where rho_bar = diag(wk)."""
    inv_root = np.diag(1.0 / np.sqrt(wk)).astype(np.complex128)
    return [inv_root @ h @ inv_root for h in hatted]


def _modular_closed_transition_algebra(
    wk: np.ndarray, hatted: list[np.ndarray], tol: float
) -> list[np.ndarray]:
    trans = [(t + dagger(t)) / 2 for t in _transition_operators(wk, hatted)]
    log_avg = np.diag(np.log(wk)).astype(np.complex128)
    gens = list(trans)
    r = wk.shape[0]
    for _ in range(r * r + 1):
        basis = generate_algebra(gens, tol=tol)
        extended = basis + [commutator(log_avg, b) for b in basis]
        bigger = generate_algebra(extended, tol=tol)
        if len(bigger) == len(basis):
            return basis
        gens = bigger
    raise NoConvergence("modular closure did not stabilize")  # pragma: no cover


def ki_decompose(fam: StateFamily, tol: float = 1e-8, validate: bool = True) -> KIDecomposition:
    """Koashi-Imoto decomposition of a state family (see module docstring).

    The output always satisfies the reconstruction (<= 1e-7 trace
    distance), isometry, projector-completeness, and maximality
    invariants; with validate=True they are checked on every call and
    DecompositionInvalid is raised on any violation.
    """
    if fam.dim > _KI_DIM_CAP:
        raise SizeCap(f"ki_decompose capped at dimension {_KI_DIM_CAP}")
    w_iso, wk, hatted = _support_restrict(fam)
    basis = _modular_closed_transition_algebra(wk, hatted, tol=1e-6)
    raw_blocks = wedderburn_decompose(basis, tol=1e-9)

    avg_hat = np.diag(wk).astype(np.complex128)
    blocks: list[KIBlock] = []
    probs = np.zeros((len(fam.states), len(raw_blocks)))
    l_states: list[list[np.ndarray]] = [[] for _ in fam.states]
    for mu, rb in enumerate(raw_blocks):
        v = rb.isometry
        m, k = rb.m, rb.k
        avg_block = (dagger(v) @ avg_hat @ v).reshape(m, k, m, k)
        omega_raw = np.einsum("akal->kl", avg_block)
        omega = omega_raw / np.trace(omega_raw).real
        omega = (omega + dagger(omega)) / 2
        for x, hat in enumerate(hatted):
            comp = (dagger(v) @ hat @ v).reshape(m, k, m, k)
            b_x = np.einsum("akbk->ab", comp)
            p = float(np.trace(b_x).real)
            p = max(0.0, p)
            probs[x, mu] = p
            if p > 1e-12:
                l_states[x].append((b_x + dagger(b_x)) / (2 * p))
            else:
                l_states[x].append(np.eye(m, dtype=np.complex128) / m)
        blocks.append(
            KIBlock(
                projector=w_iso @ rb.projector @ dagger(w_iso),
                isometry=w_iso @ v,
                m=m,
                k=k,
                omega=DensityMatrix(omega),
            )
        )

    dec = KIDecomposition(
        blocks=tuple(blocks),
        probs=probs,
        labels=fam.labels,
        l_states=tuple(tuple(row) for row in l_states),
    )
    if validate:
        _validate_decomposition(dec, fam, tol)
    return dec


def reconstruct_state(dec: KIDecomposition, x: int) -> np.ndarray:
    """Assemble sum_mu p_mu(x) V_mu (rho_L (x) omega) V_mu†."""
    d = dec.blocks[0].projector.shape[0]
    out = np.zeros((d, d), dtype=np.complex128)
    for mu, blk in enumerate(dec.blocks):
        p = dec.probs[x, mu]
        if p <= 0.0:
            continue
        inner = tensor_product(dec.l_states[x][mu], blk.omega.mat)
        out += p * (blk.isometry @ inner @ dagger(blk.isometry))
    return out


def _validate_decomposition(dec: KIDecomposition, fam: StateFamily, tol: float) -> None:
    w_iso, _, _ = _support_restrict(fam)
    support = w_iso @ dagger(w_iso)
    total = sum(b.projector for b in dec.blocks)
    if max_abs(total - support) > 1e-8:
        raise DecompositionInvalid("block projectors do not resolve the support")
    for blk in dec.blocks:
        gram = dagger(blk.isometry) @ blk.isometry
        if max_abs(gram - np.eye(blk.m * blk.k)) > 1e-8:
            raise DecompositionInvalid("block isometry is not isometric")
    for x, state in enumerate(fam.states):
        dist = 0.5 * trace_norm(state.mat - reconstruct_state(dec, x))
        if dist > 1e-7:
            raise DecompositionInvalid(
                f"state {fam.labels[x]!r} reconstructs only to {dist:.3e}"
            )
    for mu, blk in enumerate(dec.blocks):
        if blk.m < 2:
            continue
        gens = [dec.l_states[x][mu] for x in range(len(fam.states)) if dec.probs[x, mu] > 1e-9]
        if len(generate_algebra(gens)) != blk.m * blk.m:
            raise DecompositionInvalid(
                f"block {mu} factor is not maximal (m={blk.m})"
            )


# ---------------------------------------------------------------------------
# Independent refinement oracle (d <= 6)


def _commutant_basis(mats: list[np.ndarray], tol: float = 1e-9) -> list[np.ndarray]:
    """Basis of {Y : [Y, A] = 0 for all A} via the smallest eigenvectors of sum L†L."""
    p = mats[0].shape[0]
    eye = np.eye(p)
    acc = np.zeros((p * p, p * p), dtype=np.complex128)
    scale = 0.0
    for a in mats:
        l_op = np.kron(a, eye) - np.kron(eye, a.T)  # row-major vec: vec(AY - YA)
        acc += dagger(l_op) @ l_op
        scale = max(scale, float(np.linalg.norm(a)) ** 2)
    w, v = np.linalg.eigh(acc)
    null = [v[:, i].reshape(p, p) for i in range(p * p) if w[i] <= tol * max(1.0, scale)]
    return null


def _connected_components(adj: np.ndarray) -> list[list[int]]:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            for w in np.nonzero(adj[u])[0]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
                    comp.append(int(w))
        comps.append(sorted(comp))
    return comps


def _split_irreducible(iso: np.ndarray, hatted: list[np.ndarray], rng) -> list[np.ndarray]:
    """Recursively split a subspace until the compressed family is irreducible.

    Primary splitter: eigenvectors of a generic Hermitian combination of
    the family members, grouped into connected components of the "some
    member couples these eigenvectors" graph.  This is backward stable
    even when the family has nearly degenerate spectra.  A verified
    generic-commutant split handles exactly degenerate multiplicity
    spaces the primary splitter cannot see.
    """
    p = iso.shape[1]
    if p == 1:
        return [iso]
    fam_c = [dagger(iso) @ h @ iso for h in hatted]
    scale = max(max_abs(a) for a in fam_c) or 1.0

    g = sum(c * a for c, a in zip(rng.standard_normal(len(fam_c)), fam_c))
    g = (g + dagger(g)) / 2
    _, v = hermitian_eig(g)
    rotated = [dagger(v) @ a @ v for a in fam_c]
    adj = np.zeros((p, p), dtype=bool)
    for a in rotated:
        adj |= np.abs(a) > 1e-10 * scale
    np.fill_diagonal(adj, True)
    comps = _connected_components(adj | adj.T)
    if len(comps) > 1:
        pieces = []
        for comp in comps:
            pieces.extend(_split_irreducible(iso @ v[:, comp], hatted, rng))
        return pieces

    comm = _commutant_basis(fam_c)
    if len(comm) <= 1:
        return [iso]
    herm = _hermitian_span(comm)
    for _ in range(5):
        c = sum(x * z for x, z in zip(rng.standard_normal(len(herm)), herm))
        w, v = hermitian_eig(c)
        spread = max(1.0, float(w[-1] - w[0]))
        clusters = _cluster(w, 1e-7 * spread)
        if len(clusters) < 2:
            continue
        cid = np.empty(p, dtype=int)
        for ci, cl in enumerate(clusters):
            cid[cl] = ci
        cross = cid[:, None] != cid[None, :]
        worst = max(float(np.abs(dagger(v) @ a @ v)[cross].max()) for a in fam_c)
        if worst > 1e-8 * scale:
            continue  # polluted commutant direction; try a fresh draw
        pieces = []
        for cl in clusters:
            pieces.extend(_split_irreducible(iso @ v[:, cl], hatted, rng))
        return pieces
    return [iso]


def _intertwiner(a_fam: list[np.ndarray], b_fam: list[np.ndarray], tol: float = 1e-8):
    """Unitary u and scale lam with lam * u A_x u† = B_x, or None if inequivalent."""
    p = a_fam[0].shape[0]
    tr_a = sum(float(np.trace(a).real) for a in a_fam)
    tr_b = sum(float(np.trace(b).real) for b in b_fam)
    if tr_a <= 0 or tr_b <= 0:
        return None
    lam = tr_b / tr_a
    eye = np.eye(p)
    acc = np.zeros((p * p, p * p), dtype=np.complex128)
    scale = 0.0
    for a, b in zip(a_fam, b_fam):
        l_op = np.kron(eye, a.T) - np.kron(b / lam, eye)  # vec(M A - (B/lam) M)
        acc += dagger(l_op) @ l_op
        scale = max(scale, float(np.linalg.norm(a)) ** 2)
    w, v = np.linalg.eigh(acc)
    if w[0] > tol * max(1.0, scale):
        return None
    m = v[:, 0].reshape(p, p)
    gram = dagger(m) @ m
    c = float(np.trace(gram).real) / p
    if c <= 0 or max_abs(gram - c * eye) > 1e-6 * max(1.0, c):
        return None
    u = m / np.sqrt(c)
    worst = max(
        max_abs(lam * (u @ a @ dagger(u)) - b) for a, b in zip(a_fam, b_fam)
    )
    if worst > 1e-7 * (1.0 + max(max_abs(b) for b in b_fam)):
        return None
    return u, lam


def ki_refinement_oracle(fam: StateFamily, tol: float = 1e-8) -> KIDecomposition:
    """Brute-force fallback: eigenspace splitting plus intertwiner merging.

    Independent of the transition-algebra path: splits the support into
    subspaces left invariant by every family member (recursive commutant
    eigenspace splitting), then merges subspaces that carry the same
    family up to a positive scale and a unitary change of basis.  Only
    intended for d <= 6.
    """
    if fam.dim > _ORACLE_DIM_CAP:
        raise SizeCap(f"refinement oracle capped at dimension {_ORACLE_DIM_CAP}")
    rng = np.random.default_rng(777)
    w_iso, wk, hatted = _support_restrict(fam)
    r = wk.shape[0]
    pieces = _split_irreducible(np.eye(r, dtype=np.complex128), hatted, rng)

    groups: list[dict] = []
    for piece in pieces:
        a_fam = [dagger(piece) @ h @ piece for h in hatted]
        placed = False
        for grp in groups:
            if piece.shape[1] != grp["dim"]:
                continue
            res = _intertwiner(grp["ref_fam"], a_fam, tol)
            if res is not None:
                u, lam = res
                grp["members"].append((piece, u, lam))
                placed = True
                break
        if not placed:
            groups.append(
                {
                    "dim": piece.shape[1],
                    "ref_fam": a_fam,
                    "members": [(piece, np.eye(piece.shape[1], dtype=np.complex128), 1.0)],
                }
            )

    blocks: list[KIBlock] = []
    probs = np.zeros((len(fam.states), len(groups)))
    l_states: list[list[np.ndarray]] = [[] for _ in fam.states]
    for mu, grp in enumerate(groups):
        m = grp["dim"]
        k = len(grp["members"])
        iso = np.zeros((r, m * k), dtype=np.complex128)
        lams = []
        for alpha, (piece, u, lam) in enumerate(grp["members"]):
            # lam * u A_ref u† = A_piece, so conjugating the piece family by
            # u† lands every member on lam * A_ref: align with piece @ u.
            aligned = piece @ u
            iso[:, [a * k + alpha for a in range(m)]] = aligned
            lams.append(lam)
        lam_vec = np.array(lams)
        omega = np.diag(lam_vec / lam_vec.sum()).astype(np.complex128)
        for x in range(len(fam.states)):
            ref = grp["ref_fam"][x]
            p = float(np.trace(ref).real) * float(lam_vec.sum())
            p = max(0.0, p)
            probs[x, mu] = p
            if p > 1e-12:
                norm_ref = (ref + dagger(ref)) / (2 * float(np.trace(ref).real))
                l_states[x].append(norm_ref)
            else:
                l_states[x].append(np.eye(m, dtype=np.complex128) / m)
        blocks.append(
            KIBlock(
                projector=w_iso @ (iso @ dagger(iso)) @ dagger(w_iso),
                isometry=w_iso @ iso,
                m=m,
                k=k,
                omega=DensityMatrix(omega),
            )
        )
    dec = KIDecomposition(
        blocks=tuple(blocks),
        probs=probs,
        labels=fam.labels,
        l_states=tuple(tuple(row) for row in l_states),
    )
    _validate_decomposition(dec, fam, tol)
    return dec


# ---------------------------------------------------------------------------
# Orbit families and the structure checks used by the no-broadcasting argument


def _transition_algebra_dim(fam: StateFamily) -> int:
    _, wk, hatted = _support_restrict(fam)
    return len(generate_algebra(_transition_operators(wk, hatted)))


def _sampled_orbit(rho: DensityMatrix, sys: SystemSpec, n: int) -> StateFamily:
    states = []
    labels = []
    for j in range(n):
        t = 2.0 * np.pi * j / n
        states.append(time_translate(rho, sys, t))
        labels.append(f"t{j}_of_{n}")
    return StateFamily(tuple(states), tuple(labels))


def orbit_family(rho: DensityMatrix, sys: SystemSpec, n_samples: int) -> StateFamily:
    """Translates of rho at equally spaced group times.

    The sample count doubles (cap 64) until the transition-operator
    algebra dimension is stable across one doubling, so the family
    carries the same algebra as the continuous orbit.
    """
    if n_samples < 2:
        raise PreconditionFailed("orbit sampling needs at least 2 points")
    n = int(n_samples)
    dim_n = _transition_algebra_dim(_sampled_orbit(rho, sys, n))
    while True:
        if 2 * n > 64:
            raise SizeCap("orbit sampling exceeded the 64-sample cap")
        dim_2n = _transition_algebra_dim(_sampled_orbit(rho, sys, 2 * n))
        if dim_2n == dim_n:
            return _sampled_orbit(rho, sys, n)
        n *= 2
        dim_n = dim_2n


def ehrenfest_constancy_check(
    dec: KIDecomposition,
    rho: DensityMatrix,
    sys: SystemSpec,
    t_grid: list[float],
) -> float:
    """Max over blocks and times of |Tr(Pi rho(t)) - Tr(Pi rho)|.

    For a decomposition computed from the orbit of rho, the block
    populations are constant along the orbit; this returns the worst
    deviation (expected <= 1e-7).
    """
    base = [float(np.trace(blk.projector @ rho.mat).real) for blk in dec.blocks]
    worst = 0.0
    for t in t_grid:
        shifted = time_translate(rho, sys, t)
        for mu, blk in enumerate(dec.blocks):
            val = float(np.trace(blk.projector @ shifted.mat).real)
            worst = max(worst, abs(val - base[mu]))
    return worst


@dataclass(frozen=True, eq=False)
class ReducedFormResult:
    residual: float
    block_states: tuple[np.ndarray, ...]
    marginal_disturbance: float


def lemma4_reduced_form_check(
    broadcast: Channel,
    fam: StateFamily,
    dec: KIDecomposition,
    tol: float = 1e-6,
) -> ReducedFormResult:
    """Reduced-form test for marginal-preserving broadcast maps.

    For a channel Q -> Q (x) S' whose Q-marginal fixes every family
    member (within tol, else PreconditionFailed), solves least squares
    for block states sigma_mu on S' and returns the worst trace-distance
    residual of sigma_{S'}(x) against sum_mu p_mu(x) sigma_mu.  The
    residual tends to zero together with the marginal disturbance.
    """
    dq = broadcast.input.dim
    if broadcast.output.dim % dq:
        raise DimensionMismatch("broadcast output does not factor as Q (x) S'")
    dsp = broadcast.output.dim // dq
    if fam.dim != dq:
        raise DimensionMismatch("family dimension != broadcast input dimension")

    marginals_q = []
    marginals_sp = []
    worst_dist = 0.0
    for state in fam.states:
        joint = apply_choi(broadcast.choi, broadcast.output.dim, dq, state.mat)
        sig_q = partial_trace(joint, [dq, dsp], keep=[0])
        worst_dist = max(worst_dist, 0.5 * trace_norm(sig_q - state.mat))
        marginals_q.append(sig_q)
        marginals_sp.append(partial_trace(joint, [dq, dsp], keep=[1]))
    if worst_dist > tol:
        raise PreconditionFailed(
            f"broadcast disturbs the Q marginal by {worst_dist:.3e} > {tol:g}",
            witness=worst_dist,
        )

    p_mat = dec.probs  # (n_states, n_blocks)
    rhs = np.array([m.ravel() for m in marginals_sp])
    sol, *_ = np.linalg.lstsq(p_mat, rhs, rcond=None)
    block_states = tuple(sol[mu].reshape(dsp, dsp) for mu in range(p_mat.shape[1]))
    residual = 0.0
    for x in range(len(fam.states)):
        fit = sum(p_mat[x, mu] * block_states[mu] for mu in range(p_mat.shape[1]))
        residual = max(residual, 0.5 * trace_norm(marginals_sp[x] - fit))
    return ReducedFormResult(
        residual=residual,
        block_states=block_states,
        marginal_disturbance=worst_dist,
    )
