"""Numerical Koashi-Imoto decomposition of a finite state family.

Given states {rho_x} with average rho_bar, the decomposition splits the
support of rho_bar into a direct sum of tensor products
H = (+)_mu L_mu (x) R_mu such that every member factors as

    rho_x = (+)_mu p_mu(x) . rho_{L,mu}(x) (x) omega_mu

with a common per-block fixed state omega_mu.  The construction used
here: form transition operators T_x = rho_bar^{-1/2} rho_x rho_bar^{-1/2}
on the support and take the *-algebra they generate together with its
images under ad_{log rho_bar} (conjugation by rho_bar^{it} must preserve
the algebra, which is what forces the block components of rho_bar to
factor as a_L (x) omega).  In the eigenbasis of rho_bar that derivation
multiplies entry (i, j) by the frequency log w_i - log w_j, so the
closure is the algebra generated by the parts of each T_x at each
distinct frequency: one dephasing, no iteration.  The blocks are read
off the commutant of that algebra (Murota, Kanno, Kojima & Kojima,
Japan J. Indust. Appl. Math. 27, 2010).

An independent refinement oracle (eigenspace splitting of the family
itself plus intertwiner merging, d <= 6) finds the blocks another way,
and the test suite compares block dimensions.  Both back-ends end in one
assembly, which reads omega, the probabilities and the L-states off their
frames.  Correctness is never assumed: it checks every decomposition
against the reconstruction, isometry, completeness, and maximality
invariants before it is returned.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import (
    CenterDegenerate,
    DecompositionInvalid,
    DimensionMismatch,
    NoConvergence,
    NonFinite,
    PreconditionFailed,
    RankCollapse,
    SizeCap,
)
from .linalg import (
    dagger,
    hermitian_eig,
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
_ORBIT_SAMPLE_CAP = 64
# First sample count orbit_family tries.  Every count that does not alias
# gives the same algebra; this one fixes which count the seeded records use.
_ORBIT_SAMPLES = 4
# log-spectrum differences closer than this count as one modular frequency
_FREQ_TOL = 1e-6
# generate_algebra keeps Gram eigenvalues above _ALGEBRA_TOL^2 times the largest
_ALGEBRA_TOL = 1e-6
# wedderburn_decompose's closure spot checks and factorization check scale with this
_WEDDERBURN_TOL = 1e-9
# null-space cutoffs of _commutant_basis and _intertwiner, per unit of scale
_COMMUTANT_TOL = 1e-9
_INTERTWINER_TOL = 1e-8
# largest Q-marginal disturbance, in trace distance, lemma4_reduced_form_check accepts
_REDUCED_FORM_TOL = 1e-5


# ---------------------------------------------------------------------------
# *-algebra generation


def generate_algebra(gens: list[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal Hilbert-Schmidt basis of the unital *-algebra of the generators.

    Closure under products and adjoints; the loop stops once a full
    product pass adds no new direction.  Dimension is bounded by d^2.

    The span is extracted per pass from the Gram matrix of the candidates
    (current basis, adjoints, pairwise products): a direction is kept when
    its Gram eigenvalue exceeds _ALGEBRA_TOL^2 times the largest.  Only the
    generators are normalized (numerically zero ones are dropped, and a
    norm that is not finite raises NonFinite); the products of the
    orthonormal basis enter with their own norms.  A product that nearly
    cancels carries its rounding error at full relative weight, so
    normalizing it would feed floating-point junk into the next pass,
    where it compounds into spurious directions.
    """
    if not gens:
        raise DimensionMismatch("no generators")
    d = gens[0].shape[0]
    if d > _ALGEBRA_DIM_CAP:
        raise SizeCap(f"algebra generation capped at dimension {_ALGEBRA_DIM_CAP}")
    for g in gens:
        if np.asarray(g).shape != (d, d):
            raise DimensionMismatch("generators have unequal dimensions")

    def span_of(groups: Iterable[np.ndarray]) -> np.ndarray:
        gram = sum(f.T @ f.conj() for f in (g.reshape(-1, d * d) for g in groups))
        w, vecs = np.linalg.eigh(gram)
        keep = w > _ALGEBRA_TOL**2 * max(1.0, float(w[-1]))
        return vecs[:, keep].T.reshape(-1, d, d)

    norms = [float(np.linalg.norm(g)) for g in gens]
    if not np.isfinite(norms).all():
        raise NonFinite("a generator's norm is not finite")
    floor = 1e-8 * max(1.0, max(norms))
    seed = np.array(
        [np.eye(d) / np.sqrt(d)] + [g / n for g, n in zip(gens, norms) if n > floor],
        dtype=np.complex128,
    )
    basis = span_of([seed, dagger(seed)])
    for _ in range(d * d + 1):
        # the products a @ b enter one a at a time, keeping memory at l d^2
        new_basis = span_of(chain([basis, dagger(basis)], (a @ basis for a in basis)))
        if len(new_basis) == len(basis):
            return list(new_basis)
        basis = new_basis
    raise NoConvergence("algebra closure did not stabilize")  # pragma: no cover


def _contains(flat: np.ndarray, flat_conj: np.ndarray, m: np.ndarray) -> bool:
    """Whether m is in the span of flat's orthonormal (raveled) rows, to 100 _WEDDERBURN_TOL.

    flat_conj is flat.conj(), taken once by the caller.
    """
    v = m.ravel()
    r = v - (flat_conj @ v) @ flat
    return np.linalg.norm(r) <= 100 * _WEDDERBURN_TOL * (1.0 + np.linalg.norm(m))


def _generic_hermitian(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Hermitian part of a random complex combination of a *-closed span's basis.

    The span holds the adjoint of each of its elements, so the result is a
    generic Hermitian element of the span.
    """
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    c = np.tensordot(coeffs, np.asarray(basis), axes=1)
    return (c + dagger(c)) / 2


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


def _sylvester_gram(p: int, pairs: Iterable[tuple]) -> tuple[np.ndarray, float]:
    """(sum L†L, max ||right||^2) over pairs, L = kron(left, I) - kron(I, right^T).

    L maps row-major vec(Y) of a p x p Y to vec(left Y - Y right).
    """
    eye = np.eye(p)
    acc = np.zeros((p * p, p * p), dtype=np.complex128)
    scale = 0.0
    for left, right in pairs:
        l_op = np.kron(left, eye) - np.kron(eye, right.T)
        acc += dagger(l_op) @ l_op
        scale = max(scale, float(np.linalg.norm(right)) ** 2)
    return acc, scale


def _commutant_basis(mats: list[np.ndarray]) -> list[np.ndarray]:
    """Basis of {Y : [Y, A] = 0 for all A} via the smallest eigenvectors of sum L†L."""
    p = mats[0].shape[0]
    acc, scale = _sylvester_gram(p, ((a, a) for a in mats))
    w, v = np.linalg.eigh(acc)
    cutoff = _COMMUTANT_TOL * max(1.0, scale)
    return [v[:, i].reshape(p, p) for i in range(p * p) if w[i] <= cutoff]


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


# ---------------------------------------------------------------------------
# Wedderburn block structure of a *-algebra


@dataclass(frozen=True, eq=False)
class WedderburnBlock:
    """One ideal of the algebra: factorizing isometry and (m, k).

    Column a*k + alpha of the isometry carries L index a and R index alpha.
    """

    isometry: np.ndarray
    m: int
    k: int


def wedderburn_decompose(algebra_basis: list[np.ndarray]) -> list[WedderburnBlock]:
    """Block structure {V_mu, (m_mu, k_mu)} of a unital *-algebra.

    Read off the commutant, which for A ~ (+)_mu M_m (x) I_k is
    (+)_mu I_m (x) M_k: the eigenspaces of a generic Hermitian commutant
    element are the irreducible subspaces of A, a second generic element
    couples exactly those that carry the same block, and the polar factor
    of that coupling aligns their frames so the isometry realizes
    A|_mu ~ M_m (x) I_k.  The result is accepted only if every basis
    element factors through it and sum m^2 equals dim A; otherwise the
    generic elements are resampled up to five times before
    CenterDegenerate is raised.
    """
    if not algebra_basis:
        raise DimensionMismatch("empty algebra basis")
    d = algebra_basis[0].shape[0]
    rng = np.random.default_rng(20240 + len(algebra_basis) + d)

    # Precondition spot check: unital and closed under products/adjoints.
    stack = np.array(algebra_basis)
    flat = stack.reshape(len(stack), -1)
    flat_conj = flat.conj()
    if not _contains(flat, flat_conj, np.eye(d, dtype=np.complex128)):
        raise PreconditionFailed("basis does not span a unital algebra")
    n = len(algebra_basis)
    for _ in range(20):
        i, j = rng.integers(0, n, size=2)
        if not _contains(flat, flat_conj, stack[i] @ stack[j]):
            raise PreconditionFailed("basis is not closed under products")
        if not _contains(flat, flat_conj, dagger(stack[i])):
            raise PreconditionFailed("basis is not closed under adjoints")

    # the commutant of a *-algebra is *-closed
    comm = np.array(_commutant_basis(algebra_basis))
    last_err: Exception | None = None
    for _ in range(5):
        try:
            w, v = hermitian_eig(_generic_hermitian(comm, rng))
            spaces = [v[:, c] for c in _cluster(w, 1e-7 * max(1.0, float(w[-1] - w[0])))]
            g = _generic_hermitian(comm, rng)
            coupling = np.array([[max_abs(dagger(a) @ g @ b) for b in spaces] for a in spaces])
            blocks = []
            for comp in _connected_components(coupling > 1e-6 * max(1.0, max_abs(coupling))):
                base = spaces[comp[0]]
                m, k = base.shape[1], len(comp)
                iso = np.zeros((d, m * k), dtype=np.complex128)
                iso[:, 0::k] = base
                for alpha, a in enumerate(comp[1:], start=1):
                    if spaces[a].shape[1] != m:
                        raise CenterDegenerate("coupled eigenspaces of unequal dimension")
                    # within a block the coupling is a scalar times a unitary
                    uu, ss, vvh = np.linalg.svd(dagger(spaces[a]) @ g @ base)
                    if ss[-1] < 1e-9 * max(1.0, ss[0]):
                        raise CenterDegenerate("commutant coupling is rank deficient")
                    iso[:, alpha::k] = spaces[a] @ (uu @ vvh)
                blocks.append(WedderburnBlock(iso, m, k))
            _check_factorization(stack, blocks)
            return blocks
        except CenterDegenerate as exc:
            last_err = exc
    raise CenterDegenerate(f"generic commutant element stayed degenerate: {last_err}")


def _check_factorization(stack: np.ndarray, blocks: list[WedderburnBlock]) -> None:
    """Raise CenterDegenerate unless the blocks realize the algebra spanned by stack.

    Every basis element, rotated into the blocks' frames, must vanish off
    the block diagonal and read g_L (x) I_k on it; with sum m^2 = dim A the
    algebra is then exactly (+)_mu M_m (x) I_k.
    """
    if sum(b.m * b.m for b in blocks) != len(stack):
        raise CenterDegenerate("block dimensions do not add up to the algebra dimension")
    frame = np.hstack([b.isometry for b in blocks])
    rotated = dagger(frame) @ stack @ frame
    off = 0
    for b in blocks:
        size = b.m * b.k
        sub = rotated[:, off : off + size, off : off + size].reshape(-1, b.m, b.k, b.m, b.k)
        g_l = np.einsum("nakbk->nab", sub) / b.k
        rotated[:, off : off + size, off : off + size] = (
            sub - np.einsum("nab,kl->nakbl", g_l, np.eye(b.k))
        ).reshape(-1, size, size)
        off += size
    if max_abs(rotated) > 1e3 * _WEDDERBURN_TOL:
        raise CenterDegenerate("an algebra element does not factor through the blocks")


# ---------------------------------------------------------------------------
# KI decomposition


@dataclass(frozen=True, eq=False)
class KIBlock:
    """One block: isometry on the original space, dims, fixed state."""

    isometry: np.ndarray
    m: int
    k: int
    omega: DensityMatrix

    @property
    def projector(self) -> np.ndarray:
        return self.isometry @ dagger(self.isometry)


@dataclass(frozen=True, eq=False)
class KIDecomposition:
    blocks: tuple[KIBlock, ...]
    probs: np.ndarray  # (n_states, n_blocks), rows sum to 1
    l_states: tuple[tuple[np.ndarray, ...], ...]  # per state, per block
    residual: float = float("nan")  # worst reconstruction distance, set by validation

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


def _modular_components(wk: np.ndarray, hatted: list[np.ndarray]) -> list[np.ndarray]:
    """Parts of each Hermitised T_x at each distinct frequency log w_i - log w_j.

    ad_{log rho_bar} scales entry (i, j) by that frequency, so these parts
    span the smallest ad-invariant subspace holding the T_x; ad is a
    derivation, so the *-algebra they generate is closed under it.
    """
    log_w = np.log(wk)
    freqs = (log_w[:, None] - log_w[None, :]).ravel()
    trans = [(t + dagger(t)) / 2 for t in _transition_operators(wk, hatted)]
    clusters = _cluster(freqs, _FREQ_TOL)
    label = np.empty(freqs.size, dtype=np.intp)
    for c, group in enumerate(clusters):
        label[group] = c
    label = label.reshape(wk.size, wk.size)
    parts = []
    for c in range(len(clusters)):
        mask = label == c
        parts.extend(np.where(mask, t, 0.0) for t in trans)
    return parts


def ki_decompose(fam: StateFamily) -> KIDecomposition:
    """Koashi-Imoto decomposition of a state family (see module docstring).

    The output always satisfies the reconstruction (<= 1e-7 trace
    distance), isometry, projector-completeness, and maximality
    invariants, checked on every call (DecompositionInvalid on any
    violation); the worst reconstruction distance is its residual.
    """
    if fam.dim > _KI_DIM_CAP:
        raise SizeCap(f"ki_decompose capped at dimension {_KI_DIM_CAP}")
    w_iso, wk, hatted = _support_restrict(fam)
    frames = wedderburn_decompose(generate_algebra(_modular_components(wk, hatted)))
    return _assemble(fam, w_iso, wk, hatted, frames)


def _assemble(
    fam: StateFamily, w_iso, wk, hatted, frames: list[WedderburnBlock]
) -> KIDecomposition:
    """Decomposition of fam from one frame per block, validated (DecompositionInvalid).

    w_iso, wk, hatted = _support_restrict(fam); the frames act on that support.
    """
    avg_hat = np.diag(wk).astype(np.complex128)
    blocks: list[KIBlock] = []
    probs = np.zeros((len(fam.states), len(frames)))
    l_states: list[list[np.ndarray]] = [[] for _ in fam.states]
    for mu, frame in enumerate(frames):
        v, m, k = frame.isometry, frame.m, frame.k
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
                isometry=w_iso @ v,
                m=m,
                k=k,
                omega=DensityMatrix(omega),
            )
        )

    dec = KIDecomposition(
        blocks=tuple(blocks),
        probs=probs,
        l_states=tuple(tuple(row) for row in l_states),
    )
    return replace(dec, residual=_validate_decomposition(dec, fam, w_iso))


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


def _validate_decomposition(
    dec: KIDecomposition, fam: StateFamily, w_iso: np.ndarray
) -> float:
    """Check dec against fam, whose support w_iso spans; return the worst
    reconstruction distance."""
    support = w_iso @ dagger(w_iso)
    total = sum(b.projector for b in dec.blocks)
    if max_abs(total - support) > 1e-8:
        raise DecompositionInvalid("block projectors do not resolve the support")
    for blk in dec.blocks:
        gram = dagger(blk.isometry) @ blk.isometry
        if max_abs(gram - np.eye(blk.m * blk.k)) > 1e-8:
            raise DecompositionInvalid("block isometry is not isometric")
    worst = 0.0
    for x, state in enumerate(fam.states):
        dist = 0.5 * trace_norm(state.mat - reconstruct_state(dec, x))
        if dist > 1e-7:
            raise DecompositionInvalid(
                f"state {fam.labels[x]!r} reconstructs only to {dist:.3e}"
            )
        worst = max(worst, dist)
    for mu, blk in enumerate(dec.blocks):
        if blk.m < 2:
            continue
        gens = [dec.l_states[x][mu] for x in range(len(fam.states)) if dec.probs[x, mu] > 1e-9]
        if len(generate_algebra(gens)) != blk.m * blk.m:
            raise DecompositionInvalid(
                f"block {mu} factor is not maximal (m={blk.m})"
            )
    return worst


# ---------------------------------------------------------------------------
# Independent refinement oracle (d <= 6)


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
    for _ in range(5):
        w, v = hermitian_eig(_generic_hermitian(comm, rng))
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


def _intertwiner(a_fam: list[np.ndarray], b_fam: list[np.ndarray]) -> np.ndarray | None:
    """Unitary u with lam * u A_x u† = B_x for a scale lam > 0, or None if inequivalent."""
    p = a_fam[0].shape[0]
    tr_a = sum(float(np.trace(a).real) for a in a_fam)
    tr_b = sum(float(np.trace(b).real) for b in b_fam)
    if tr_a <= 0 or tr_b <= 0:
        return None
    lam = tr_b / tr_a
    # the intertwiners M, with (B/lam) M = M A, are the null space
    acc, scale = _sylvester_gram(p, ((b / lam, a) for a, b in zip(a_fam, b_fam)))
    w, v = np.linalg.eigh(acc)
    if w[0] > _INTERTWINER_TOL * max(1.0, scale):
        return None
    m = v[:, 0].reshape(p, p)
    gram = dagger(m) @ m
    c = float(np.trace(gram).real) / p
    if c <= 0 or max_abs(gram - c * np.eye(p)) > 1e-6 * max(1.0, c):
        return None
    u = m / np.sqrt(c)
    worst = max(
        max_abs(lam * (u @ a @ dagger(u)) - b) for a, b in zip(a_fam, b_fam)
    )
    if worst > 1e-7 * (1.0 + max(max_abs(b) for b in b_fam)):
        return None
    return u


def ki_refinement_oracle(fam: StateFamily) -> KIDecomposition:
    """Brute-force fallback: eigenspace splitting plus intertwiner merging.

    Independent of the transition-algebra path: splits the support into
    subspaces left invariant by every family member (recursive commutant
    eigenspace splitting), then merges subspaces that carry the same
    family up to a positive scale and a unitary change of basis.  The
    merged frames go through the same assembly and validation as
    ki_decompose's.  Only intended for d <= 6.
    """
    if fam.dim > _ORACLE_DIM_CAP:
        raise SizeCap(f"refinement oracle capped at dimension {_ORACLE_DIM_CAP}")
    rng = np.random.default_rng(777)
    w_iso, wk, hatted = _support_restrict(fam)
    r = wk.shape[0]
    pieces = _split_irreducible(np.eye(r, dtype=np.complex128), hatted, rng)

    # per block: the first piece's compressed family and the aligned pieces
    groups: list[tuple[list[np.ndarray], list[np.ndarray]]] = []
    for piece in pieces:
        a_fam = [dagger(piece) @ h @ piece for h in hatted]
        for ref_fam, members in groups:
            u = _intertwiner(ref_fam, a_fam) if piece.shape == members[0].shape else None
            if u is not None:
                # lam * u A_ref u† = A_piece, so conjugating the piece family by
                # u† lands every member on lam * A_ref: align with piece @ u.
                members.append(piece @ u)
                break
        else:
            groups.append((a_fam, [piece]))

    # column a*k + alpha of a frame is column a of aligned piece alpha
    frames = [
        WedderburnBlock(np.stack(aligned, axis=2).reshape(r, -1), aligned[0].shape[1], len(aligned))
        for _, aligned in groups
    ]
    return _assemble(fam, w_iso, wk, hatted, frames)


# ---------------------------------------------------------------------------
# Orbit families and the structure checks used by the no-broadcasting argument


def _sampled_orbit(rho: DensityMatrix, sys: SystemSpec, n: int) -> StateFamily:
    states = []
    labels = []
    for j in range(n):
        t = 2.0 * np.pi * j / n
        states.append(time_translate(rho, sys, t))
        labels.append(f"t{j}_of_{n}")
    return StateFamily(tuple(states), tuple(labels))


def orbit_family(rho: DensityMatrix, sys: SystemSpec) -> StateFamily:
    """Translates of rho at n equally spaced group times.

    n is the smallest n >= _ORBIT_SAMPLES at which the spectral differences
    s_i - s_j of sys stay distinct mod n (n > 2 D, D the spectral width,
    always qualifies); SizeCap above _ORBIT_SAMPLE_CAP.  Entry (i, j) of
    rho(t) turns at frequency s_i - s_j, so n samples alias two
    frequencies onto one exactly when they agree mod n.  Without aliasing
    the samples span the same operators as the continuous orbit and
    average to its twirl, so the family carries the continuous orbit's
    algebra.
    """
    spectrum = np.array(sys.spectrum)
    freqs = np.unique(np.subtract.outer(spectrum, spectrum))
    # every nonzero difference between two frequencies
    clashes = np.subtract.outer(freqs, freqs)
    clashes = clashes[clashes > 0]
    n = _ORBIT_SAMPLES
    while n <= _ORBIT_SAMPLE_CAP and np.any(clashes % n == 0):
        n += 1
    if n > _ORBIT_SAMPLE_CAP:
        raise SizeCap(
            f"orbit sampling needs at least {n} samples, above the cap {_ORBIT_SAMPLE_CAP}"
        )
    return _sampled_orbit(rho, sys, n)


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


def lemma4_reduced_form_check(
    broadcast: Channel,
    fam: StateFamily,
    dec: KIDecomposition,
) -> ReducedFormResult:
    """Reduced-form test for marginal-preserving broadcast maps.

    For a channel Q -> Q (x) S' whose Q-marginal fixes every family
    member (within _REDUCED_FORM_TOL in trace distance, else
    PreconditionFailed), solves least squares for block states sigma_mu
    on S' and returns the worst trace-distance residual of sigma_{S'}(x)
    against sum_mu p_mu(x) sigma_mu.  The residual tends to zero together
    with the marginal disturbance.
    """
    dq = broadcast.input.dim
    if broadcast.output.dim % dq:
        raise DimensionMismatch("broadcast output does not factor as Q (x) S'")
    dsp = broadcast.output.dim // dq
    if fam.dim != dq:
        raise DimensionMismatch("family dimension != broadcast input dimension")

    marginals_sp = []
    worst_dist = 0.0
    for state in fam.states:
        joint = apply_choi(broadcast.choi, state.mat)
        sig_q = partial_trace(joint, [dq, dsp], keep=[0])
        worst_dist = max(worst_dist, 0.5 * trace_norm(sig_q - state.mat))
        marginals_sp.append(partial_trace(joint, [dq, dsp], keep=[1]))
    if worst_dist > _REDUCED_FORM_TOL:
        raise PreconditionFailed(
            f"broadcast disturbs the Q marginal by {worst_dist:.3e} > {_REDUCED_FORM_TOL:g}"
        )

    p_mat = dec.probs  # (n_states, n_blocks)
    rhs = np.array([m.ravel() for m in marginals_sp])
    sol, *_ = np.linalg.lstsq(p_mat, rhs, rcond=None)
    block_states = tuple(sol[mu].reshape(dsp, dsp) for mu in range(p_mat.shape[1]))
    residual = 0.0
    for x in range(len(fam.states)):
        fit = sum(p_mat[x, mu] * block_states[mu] for mu in range(p_mat.shape[1]))
        residual = max(residual, 0.5 * trace_norm(marginals_sp[x] - fit))
    return ReducedFormResult(residual=residual, block_states=block_states)
