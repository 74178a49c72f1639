"""Constrained optimization over covariant channels.

The two optimizers, recovery and broadcast, share one geometric core,
project_covariant_tp_psd: the Euclidean projection onto covariant,
trace-preserving, PSD Choi matrices.
It dephases once across the sectors of the covariance generator
K = H_out (x) I - I (x) H_in^T, which is exact because the target set
lies in the covariant subspace.  In the eigenbasis of K the dephased
matrix is block diagonal, and the projection is X = [J + I (x) Y]_+,
clipped block by block, where Y solves the dual semidefinite
least-squares problem of Malick (SIAM J. Matrix Anal. Appl. 26, 2004) by
the semismooth Newton method of Qi & Sun (SIAM J. Matrix Anal. Appl. 28,
2006).  The dual gradient is the TP residual Tr_out X - I, so the result
is PSD and covariant by construction and trace preserving to the Newton
tolerance.  It reads the block layout cached on the CovarianceSector: the
1x1 sectors are read off as one vector, and the larger blocks of each
size take one batched eigh per Newton evaluation.

The recovery-fidelity maximization is a concave objective on a convex
set, so projected gradient ascent with quadratic backtracking converges
to the global maximum, and the Frank-Wolfe duality gap (Jaggi, ICML 2013) at
any feasible point bounds how far below the maximum it is.  The ascent
stops once that gap is within tolerance, and reports it: the achieved
fidelity F gives an upper bound 1 - F^2 on the irreversibility, and
F + gap a lower bound 1 - (F + gap)^2.  Checks that irreversibility is
small read the first; the degradation demo and the tradeoff relation,
which need irreversibility to be large, read the second.  The global
certificate makes one deterministic start enough: a pure qubit target
starts at its closed-form optimum, where the gap only certifies it.

Both objectives hand the ascent an evaluate(J) that returns the value and
a closure building the gradient from the same intermediates.  Every
ascent also stops at a zero gradient, when no step rises, or when no step
can move J: once a projected step P(J + s G) returns J to roundoff, so do
all shorter ones.

The broadcast objective never exceeds f_t(rho_Q): sigma_S' is the output of
a covariant channel, f_t cannot increase under one, and the penalty is
nonnegative.  Its ascents, and its starts, stop once a run reaches it.

fidelity_gradient is exact on the support of its target, with no
regularization, so the gap above is the exact Frank-Wolfe bound wherever
a gradient exists.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NonFinite, SingularTarget
from .linalg import (
    dagger,
    fidelity_arrays,
    hermitian_function,
    max_abs,
    partial_trace,
    psd_eig,
    tensor_product,
    trace_norm,
)
from .qtypes import (
    Channel,
    DensityMatrix,
    SystemSpec,
    apply_choi,
    choi_from_map,
    tensor_system,
)
from .symmetry import CovarianceSector, measure_ft, random_covariant_channel
from .tolerances import TOL_RANK

# The broadcast penalty ||sigma_Q - rho_Q||_1 is smoothed to
# sum_i sqrt(w_i^2 + _SMOOTHING^2) over the eigenvalues w_i.
_SMOOTHING = 1e-6

# The recovery ascent stops at a duality gap of at most _GAP_TOL, and is
# certified converged at a gap of at most _GAP_TOL plus _GAP_ROUNDOFF: the
# gap subtracts traces of order one, each rounded at about 1e-16 per entry.
_GAP_TOL = 1e-8
_GAP_ROUNDOFF = 1e-12
# The penalty ascent has no certificate; it stops once an accepted step
# rises by less than _RISE_TOL times max(1, |objective|).  f_t lies in
# [0, 1], so that unit scale is the resolution the records carry.  A rise
# relative to |objective| alone would not stop the ascent on the smoothing
# floor (objective about -2 lam _SMOOTHING, curvature of order
# lam / _SMOOTHING), where each step gains of order 1e-11.  The same
# resolution decides when an objective has reached its ceiling.
_RISE_TOL = 1e-8

# Dual-Newton projection: TP residual ||Tr_out X - I||_F to reach, and the
# step cap.  Roundoff in the block eigenvalues floors the reachable residual
# at about _NEWTON_FLOOR * NEWTON_TOL per unit of the largest input entry,
# so the target rises to that floor once the entry exceeds 1 / _NEWTON_FLOOR.
# The line search halves at most _MAX_HALVINGS times and forgives a rise of
# the dual value up to its roundoff, _ROUNDOFF per unit of the largest
# entry; the Newton system gets a ridge of min(_RIDGE, residual).
NEWTON_TOL = 1e-13
_NEWTON_FLOOR = 0.05
NEWTON_MAX_ITER = 50
# An ascent candidate P(J + s G) within _FIXED_POINT of J, per unit of the
# largest entry of J, has not moved beyond the projection's roundoff.
# ||P(J + s G) - J|| is nondecreasing in s, so no shorter step moves J
# either, and the ascent stops.  The threshold stays at roundoff: at 1e-13
# it already stops ascents that still rise.
_FIXED_POINT = 1e-15
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_ROUNDOFF = 1e-13
_RIDGE = 1e-6

__all__ = [
    "OptimizerConfig",
    "IrrevResult",
    "BroadcastAttempt",
    "project_covariant_tp_psd",
    "fidelity_gradient",
    "max_recovery_fidelity",
    "optimize_broadcast",
    "DEFAULT_LAMBDA_SCHEDULE",
]

DEFAULT_LAMBDA_SCHEDULE = (0.0, 1.0, 4.0, 16.0, 64.0, 256.0)


@dataclass(frozen=True)
class OptimizerConfig:
    """Step cap of every ascent, and the broadcast's random starts after its fixed
    ones (restarts, drawn from seed).  The recovery reads max_iter alone."""

    max_iter: int = 2000
    restarts: int = 1
    seed: int = 0


@dataclass(frozen=True, eq=False)
class IrrevResult:
    """Outcome of the covariant-recovery maximization.

    value = 1 - F^2 for the best fidelity F achieved, an upper bound on the
    irreversibility; the fidelity trace is nondecreasing (monotone ascent
    under backtracking) and ends at F.  gap bounds the optimum from above,
    F* <= F + gap (inf when no certificate exists), so irrev_lower is a
    lower bound.  converged is the verdict gap <= _GAP_TOL + _GAP_ROUNDOFF.
    """

    best_recovery: Channel
    fidelity_trace: tuple[tuple[int, float], ...]
    gap: float

    @property
    def converged(self) -> bool:
        return self.gap <= _GAP_TOL + _GAP_ROUNDOFF

    @property
    def fidelity(self) -> float:
        return self.fidelity_trace[-1][1]

    @property
    def value(self) -> float:
        return 1.0 - self.fidelity * self.fidelity

    @property
    def irrev_lower(self) -> float:
        return 1.0 - min(1.0, self.fidelity + self.gap) ** 2


@dataclass(frozen=True, eq=False)
class BroadcastAttempt:
    """One feasible covariant broadcast map with its frontier coordinates.

    Lower-bound witness only: the coherence moved to the second output at
    the achieved marginal disturbance, never claimed optimal.
    """

    map: Channel
    marginal_disturbance: float
    output_coherence: float
    lam: float


def project_covariant_tp_psd(
    j: np.ndarray, in_sys: SystemSpec, out_sys: SystemSpec
) -> np.ndarray:
    """Project a Hermitian matrix onto the covariant-TP-PSD Choi set.

    The set lies in the covariant subspace, so the projection of J equals
    that of its sector dephasing.  In the sector basis V_out (x) conj(V_in)
    the dephased J~ is block diagonal over the eigenvalues of K, and the
    projection is X = [J~ + I (x) Y]_+, clipped block by block.  Y is the
    Hermitian minimizer, in the commutant of H_in^T, of the dual function
    (1/2)||[J~ + I (x) Y]_+||^2 - Tr Y, whose gradient Tr_out X - I is the
    TP residual.  Semismooth Newton with the generalized Jacobian of the
    block eigendecompositions (zero eigenvalues counted as positive) and an
    Armijo line search drives the residual below NEWTON_TOL, or below its
    roundoff floor _NEWTON_FLOOR * NEWTON_TOL per unit of the largest entry
    of J~ when that is larger.  The start Y0 = (I - Tr_out J~) / d_out is
    the Newton step from Y = 0, so J = 0 lands on I (x) I / d_out at once.
    The layout is CovarianceSector.blocks, cached on the sector: the 1x1
    blocks are read off as one vector (each is its own eigenvalue), and
    the larger blocks of each size take one batched eigh.
    X is PSD and covariant by construction.  Raises NonFinite if the
    starting residual is not finite (a NaN or Inf in J), and NoConvergence,
    its message giving the final residual, if the line search stalls or
    NEWTON_MAX_ITER is spent.
    """
    sector = CovarianceSector.for_channel(out_sys, in_sys)
    basis = sector.basis
    jt = (dagger(basis) @ np.asarray(j, dtype=np.complex128) @ basis).ravel()
    tr_e, layout = sector.blocks
    n = tr_e.size
    # Reading off the sector blocks is the dephasing.  The 1x1 blocks are
    # their real diagonal entries, read off as one vector; larger blocks
    # of equal size are stacked, so each size costs one batched eigh.
    blocks = []
    for flat, e, e_conj in layout:
        if e_conj is None:
            blocks.append(jt.real[flat])
        else:
            jb = jt[flat].reshape(len(flat), e.shape[-1], e.shape[-1])
            blocks.append((jb + dagger(jb)) / 2)
    # Eigenvalues of the blocks, and so X and the dual value, carry
    # roundoff in proportion to the largest entry.
    scale = max(1.0, max(max_abs(jb) for jb in blocks))
    tol = NEWTON_TOL * max(1.0, _NEWTON_FLOOR * scale)

    def components(e, e_conj, xb):
        """<I (x) E_k, X> summed over a group of blocks."""
        if e_conj is None:
            # e is the level of each 1x1 block.  bincount adds in block
            # order, like the einsum below; a BLAS product need not.
            return np.bincount(e, weights=xb, minlength=n)
        return np.einsum("gkij,gij->k", e_conj, xb).real

    def evaluate(y):
        """Dual value, gradient and the block eigendecompositions at y.

        A 1x1 block is its own eigenvalue w, with eigenvector 1 (q = None).
        """
        theta = -float(y @ tr_e)
        grad = -tr_e
        eigs = []
        for jb, (_, e, e_conj) in zip(blocks, layout):
            if e_conj is None:
                w, q = jb + y[e], None
                xb = wp = np.maximum(w, 0.0)
            else:
                w, q = np.linalg.eigh(jb + np.einsum("k,gkij->gij", y, e))
                wp = np.maximum(w, 0.0)
                xb = (q * wp[:, None, :]) @ dagger(q)
            theta += 0.5 * float((wp * wp).sum())
            grad = grad + components(e, e_conj, xb)
            eigs.append((w, wp, q, xb))
        return theta, grad, eigs

    def jacobian(eigs):
        """Generalized Jacobian of the gradient, in the commutant basis."""
        v = np.zeros((n, n))
        for (_, e, e_conj), (w, wp, q, _) in zip(layout, eigs):
            pos = w >= 0
            if e_conj is None:
                # E^T diag(pos) E, for the 1x1 blocks' E = eye(n)[e]
                v.flat[:: n + 1] += np.bincount(e, weights=pos, minlength=n)
                continue
            mixed = pos[:, :, None] != pos[:, None, :]
            den = np.where(mixed, w[:, :, None] - w[:, None, :], 1.0)
            both = pos[:, :, None] & pos[:, None, :]
            omega = np.where(mixed, (wp[:, :, None] - wp[:, None, :]) / den, both)
            amat = dagger(q)[:, None] @ e @ q[:, None]
            v += np.einsum("gkij,gij,glij->kl", amat.conj(), omega, amat).real
        return v

    marg = sum(components(e, e_conj, jb) for jb, (_, e, e_conj) in zip(blocks, layout))
    y = (tr_e - marg) / out_sys.dim
    theta, grad, eigs = evaluate(y)
    # ||grad||, as np.linalg.norm computes it, without its dispatch
    res = math.sqrt(grad @ grad)
    if not math.isfinite(res):
        raise NonFinite(f"dual-Newton projection input is not finite (TP residual {res})")
    eye = np.eye(n)
    steps = 0
    while res > tol:
        if steps == NEWTON_MAX_ITER:
            raise NoConvergence(
                f"dual-Newton projection took {steps} steps (TP residual {res:.3e})"
            )
        steps += 1
        step = np.linalg.solve(jacobian(eigs) + min(_RIDGE, res) * eye, -grad)
        slope = float(grad @ step)
        slack = _ROUNDOFF * scale * (1.0 + abs(theta))
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = evaluate(y + alpha * step)
            if trial[0] <= theta + _ARMIJO * alpha * slope + slack:
                break
            alpha *= 0.5
        else:
            raise NoConvergence(f"dual-Newton projection stalled (TP residual {res:.3e})")
        y = y + alpha * step
        theta, grad, eigs = trial
        res = math.sqrt(grad @ grad)
    xt = np.zeros_like(jt)
    for (flat, _, _), (_, _, _, xb) in zip(layout, eigs):
        xt[flat] = xb.reshape(flat.shape)
    x = basis @ xt.reshape(basis.shape) @ dagger(basis)
    return (x + dagger(x)) / 2


def fidelity_gradient(rho_target: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient G of X -> Fid(rho, X): Fid(rho, X + delta) ~ Fid + Tr(G delta).

    Takes raw arrays: rho a state, X Hermitian PSD.

    With rho = V D V† over its eigenvalues at or above TOL_RANK and
    B = V D^{1/2}, sqrt(rho) X sqrt(rho) = V M V† for the r x r matrix
    M = B† X B (r the rank of rho), so Fid = Tr M^{1/2} and
    G = (1/2) B M^{-1/2} B†, exact wherever M is nonsingular.
    SingularTarget is raised when M has an eigenvalue below TOL_RANK or
    is conditioned worse than 1e14, and NotPSD (psd_eig) when rho is not
    PSD.  rho and M are each decomposed once.
    """
    w, v = psd_eig(rho_target)
    keep = w >= TOL_RANK
    b = v[:, keep] * np.sqrt(w[keep])
    mid = dagger(b) @ x @ b
    mid = (mid + dagger(mid)) / 2
    r = mid.shape[0]

    def inv_sqrt(wk):
        # wk holds the eigenvalues of M at or above TOL_RANK.
        if wk.size < r:
            raise SingularTarget(f"B† X B has {r - wk.size} eigenvalue(s) below {TOL_RANK:g}")
        cond = float(wk[-1] / wk[0]) if wk.size else math.inf
        if cond > 1e14:
            raise SingularTarget(f"B† X B condition number {cond:.3e} exceeds 1e14")
        return 1.0 / np.sqrt(wk)

    g = 0.5 * (b @ hermitian_function(mid, inv_sqrt, TOL_RANK) @ dagger(b))
    return (g + dagger(g)) / 2


def _shrink_factor(pred: float, drop: float) -> float:
    """Factor on the step s after a rejected ascent candidate.

    pred = Re<G, P(J + s G) - J> is the first-order rise to the candidate
    (nonnegative: the projection gives <G, d> >= ||d||^2 / s), and drop,
    at most zero, is the objective there minus at J.  The quadratic in the
    step fraction a with value 0 and slope pred at a = 0 and value drop
    at a = 1 peaks at a = pred / (2 (pred - drop)) (safeguarded quadratic
    backtracking, Nocedal & Wright, Numerical Optimization, sec. 3.5).
    The factor is clipped to [0.2, 0.5], and is 0.5 when the quadratic
    has no peak or drop is NaN.  Below 0.2 the x1.5 growth of later steps
    takes long to recover: at 0.1 the warm lambda = 1 ascent of the default
    no_broadcast run takes 101 steps instead of 18.
    """
    curvature = pred - drop
    if not curvature > 0:
        return 0.5
    return min(0.5, max(0.2, pred / (2.0 * curvature)))


def _at_ceiling(val: float, ceiling: float) -> bool:
    """True once val is within _RISE_TOL * max(1, |val|) of ceiling."""
    return ceiling - val <= _RISE_TOL * max(1.0, abs(val))


def _embedding(in_sys: SystemSpec, out_sys: SystemSpec):
    """Isometry iota: in -> out with H_out iota = iota (H_in + s), or None.

    s is the integer of least |s| (the negative one of a tie) for which each
    level of H_in + s has at least as many eigenvectors in H_out; the n-th
    input eigenvector at a level goes to the n-th output eigenvector at that
    level + s.  Then iota e^{-iH_in t} = e^{ist} e^{-iH_out t} iota, so
    rho -> iota rho iota† is a covariant channel.  None when no shift fits
    the spectrum of in inside that of out.
    """
    slots = {}
    for o, level in enumerate(out_sys.spectrum):
        slots.setdefault(level, []).append(o)
    first = in_sys.spectrum[0]
    for s in sorted({level - first for level in slots}, key=lambda s: (abs(s), s)):
        free = {level: iter(outs) for level, outs in slots.items()}
        try:
            cols = [next(free[level + s]) for level in in_sys.spectrum]
        except (KeyError, StopIteration):
            continue
        return out_sys.eigenbasis[:, cols] @ dagger(in_sys.eigenbasis)
    return None


def _pure_qubit_recovery(rho_q, sigma, from_sys, to_sys, iota):
    """Choi matrix of the best covariant recovery of a pure qubit target, or None.

    None unless both systems are qubits with a gap, iota exists and rho_Q has
    rank one at TOL_RANK.
    With V from's eigenbasis and W = iota V, the covariant R are x -> W [[u x00 + (1-v) x11,
    eta x01], [eta* x10, (1-u) x00 + v x11]] W† with |eta|^2 <= uv.  For (a, b) = W† psi,
    s = V† sigma V and c = a* b s01, F^2 = const + alpha u + beta v + 2 |c| sqrt(uv) at
    eta = sqrt(uv) c*/|c|, alpha = (|a|^2 - |b|^2) s00, beta = (|b|^2 - |a|^2) s11.  It is
    concave, so a nonnegative coefficient's coordinate is 1, the other min(1, (|c| / coef)^2).
    """
    if from_sys.dim != 2 or to_sys.dim != 2 or iota is None:
        return None
    if from_sys.spectrum[0] == from_sys.spectrum[1]:
        return None
    w, vecs = np.linalg.eigh(rho_q.mat)
    if w[0] >= TOL_RANK:
        return None
    v_in = from_sys.eigenbasis
    basis = iota @ v_in
    a, b = (complex(x) for x in dagger(basis) @ vecs[:, 1])
    s = dagger(v_in) @ sigma.mat @ v_in
    c = a.conjugate() * b * complex(s[0, 1])
    k = abs(c)
    diff = abs(a) ** 2 - abs(b) ** 2
    alpha, beta = diff * float(s[0, 0].real), -diff * float(s[1, 1].real)
    # min(1, (k / coef)^2), written so that no division can overflow
    if alpha >= 0:
        u, v = 1.0, (1.0 if beta >= 0 or k >= -beta else (k / beta) ** 2)
    else:
        u, v = (1.0 if k >= -alpha else (k / alpha) ** 2), 1.0
    eta = math.sqrt(u * v) * (c.conjugate() / k if k > 0 else 1.0)

    def recover(x):
        x = dagger(v_in) @ x @ v_in
        m = np.array(
            [
                [u * x[0, 0] + (1 - v) * x[1, 1], eta * x[0, 1]],
                [eta.conjugate() * x[1, 0], (1 - u) * x[0, 0] + v * x[1, 1]],
            ]
        )
        return basis @ m @ dagger(basis)

    return choi_from_map(recover, 2, 2)


def _ascend(
    j0: np.ndarray,
    evaluate,
    in_sys: SystemSpec,
    out_sys: SystemSpec,
    max_iter: int,
    gap=None,
    ceiling: float = math.inf,
):
    """Projected gradient ascent with backtracking; returns (J, trace, gap).

    evaluate(J) returns the objective at J and a function that gives the
    gradient at J from the same intermediates, so a candidate is evaluated
    once and only an accepted one pays for its gradient.  trace holds
    (step, objective) for each accepted J and ends at the returned one.
    With a gap function (J, gradient at J) -> bound on the optimum minus
    the objective at J, the ascent stops once that bound is at most
    _GAP_TOL and returns the bound at the final J.  Without one it stops
    once an accepted step rises by less than _RISE_TOL times
    max(1, |objective|), and the returned gap is inf, as it is when the
    gradient raises SingularTarget.  Either way it also stops after
    max_iter steps, at an exactly zero gradient, when none of 40
    candidates rises, and, before the gradient, once the objective is
    _at_ceiling (ceiling bounds the objective over the whole set).
    Each rejected candidate P(J + s G) shrinks s by _shrink_factor, to
    the peak of a quadratic model of the objective along the step, and
    the ladder ends early, without evaluating the objective, once a
    candidate lies within _FIXED_POINT of J.  For a convex set
    ||P(J + s G) - J|| is nondecreasing in s (Bertsekas, Nonlinear
    Programming, sec. 2.3), so then no shorter step can move J.
    """
    j = project_covariant_tp_psd(j0, in_sys, out_sys)
    val, gradient = evaluate(j)
    trace = [(0, val)]
    step = 1.0
    width = math.inf
    # With a gap function, one more gradient certifies the last step's J.
    for it in range(1, max_iter + 1 + (gap is not None)):
        if _at_ceiling(val, ceiling):
            break
        try:
            grad = gradient()
        except SingularTarget:
            # No gradient: no step and no certificate.
            width = math.inf
            break
        if gap is not None:
            width = gap(j, grad)
            if width <= _GAP_TOL or it > max_iter:
                break
        if not grad.any():
            # P(J + s G) = J for every s: the ladder would project J to no end.
            break
        improved = False
        roundoff = _FIXED_POINT * max(1.0, max_abs(j))
        for _ in range(40):
            cand = project_covariant_tp_psd(j + step * grad, in_sys, out_sys)
            if max_abs(cand - j) <= roundoff:
                # J is a fixed point of the projected step: no step can move it.
                break
            cand_val, cand_gradient = evaluate(cand)
            if cand_val > val:
                improved = True
                break
            step *= _shrink_factor(np.vdot(grad, cand - j).real, cand_val - val)
        if not improved:
            break
        rel = (cand_val - val) / max(1.0, abs(val))
        j, val, gradient = cand, cand_val, cand_gradient
        trace.append((it, val))
        step = min(step * 1.5, 1e3)
        if gap is None and 0 <= rel < _RISE_TOL:
            break
    return j, trace, width


def _best_ascent(starts, evaluate, in_sys, out_sys, max_iter, ceiling):
    """The _ascend run of highest final objective over starts (the first of
    equal values wins).  starts is read lazily, and no start is read once
    the best run is _at_ceiling.
    """
    best = None
    for start in starts:
        run = _ascend(start, evaluate, in_sys, out_sys, max_iter, ceiling=ceiling)
        if best is None or run[1][-1][1] > best[1][-1][1]:
            best = run
        if _at_ceiling(best[1][-1][1], ceiling):
            break
    return best


def max_recovery_fidelity(
    rho_q: DensityMatrix,
    sigma: DensityMatrix,
    from_sys: SystemSpec,
    to_sys: SystemSpec,
    max_iter: int = OptimizerConfig.max_iter,
) -> IrrevResult:
    """Maximize Fid(rho_Q, R(sigma)) over covariant channels R: from -> to.

    Projected gradient ascent on the Choi matrix J of R, stopped by the
    Frank-Wolfe duality gap.  With nabla the gradient of F at J and G its
    covariant twirl, every covariant channel S has Tr[nabla S] = Tr[G S],
    and Y = Y0 + s I with Y0 = herm(Tr_out(G J)) and
    s = lambda_max(G - I (x) Y0) has I (x) Y >= G, so
    Tr[G S] <= Tr[Y Tr_out S] = Tr Y0 + d_in s.  F is concave, so
    F(S) <= F(J) + Tr[G (S - J)] <= F(J) + gap with
    gap = Tr Y0 + d_in s - Tr[G J].  At the optimum G J = (I (x) Y0) J and
    the gap closes.  nabla is fidelity_gradient's exact gradient, so the
    gap is the exact Frank-Wolfe bound.
    A target without a gradient (SingularTarget) stops the ascent and
    leaves the result uncertified, with an infinite gap.

    One ascent of at most max_iter steps, from one start: the closed-form
    optimum of _pure_qubit_recovery where it applies (a pure qubit target,
    its gap still checked), else rho -> iota rho iota† for the _embedding
    iota of from in to (the identity channel when the systems match), else
    the zero matrix, which the ascent's first projection takes to the
    replacement channel rho -> Tr rho I / d_out.  The gap bounds the global
    optimum from any start, so the result depends on the inputs alone.
    """
    if sigma.dim != from_sys.dim or rho_q.dim != to_sys.dim:
        raise DimensionMismatch("state dimensions do not match the recovery spaces")

    d_out, d_in = to_sys.dim, from_sys.dim
    sigma_t = sigma.mat.T.copy()
    sector = CovarianceSector.for_channel(to_sys, from_sys)
    eye_out = np.eye(d_out)

    def evaluate(j):
        out = apply_choi(j, sigma.mat)

        def gradient():
            g = fidelity_gradient(rho_q.mat, (out + dagger(out)) / 2)
            return tensor_product(g, sigma_t)

        return fidelity_arrays(rho_q.mat, out), gradient

    def gap(j, grad):
        g = sector.dephase(grad)
        gj = g @ j
        y0 = partial_trace(gj, [d_out, d_in], keep=[1])
        y0 = (y0 + dagger(y0)) / 2
        shift = float(np.linalg.eigvalsh(g - tensor_product(eye_out, y0))[-1])
        width = float(np.trace(y0).real) + d_in * shift - float(np.trace(gj).real)
        # The exact gap is nonnegative at a feasible J; NaN stays NaN.
        return max(width, 0.0)

    iota = _embedding(from_sys, to_sys)
    j0 = _pure_qubit_recovery(rho_q, sigma, from_sys, to_sys, iota)
    if j0 is None and iota is not None:
        j0 = choi_from_map(lambda m: iota @ m @ dagger(iota), d_in, d_out)
    if j0 is None:
        j0 = np.zeros((d_out * d_in, d_out * d_in))
    j, trace, width = _ascend(j0, evaluate, from_sys, to_sys, max_iter, gap)
    return IrrevResult(
        best_recovery=Channel(from_sys, to_sys, j), fidelity_trace=tuple(trace), gap=width
    )


def optimize_broadcast(
    rho_q: DensityMatrix,
    sys_q: SystemSpec,
    sys_sp: SystemSpec,
    t: float,
    lambda_schedule,
    cfg: OptimizerConfig,
) -> list[BroadcastAttempt]:
    """Frontier of covariant broadcast attempts Q -> Q (x) S'.

    For each penalty lam, ascends measure_ft(sigma_S', t)
    - lam * ||sigma_Q - rho_Q||_1 over covariant Choi matrices, with the
    trace norm smoothed; evaluate(J, lam) returns the value and a closure
    building the gradient from the same marginals.  The first penalty
    starts from keep-and-prepare, then move-and-refill
    rho -> I/d_Q (x) iota rho iota† when S' holds a shifted copy of Q's
    spectrum (the _embedding iota), then cfg.restarts random covariant
    channels drawn in turn from one generator seeded with cfg.seed; each
    later penalty from the previous solution, then keep-and-prepare.  The
    first of equal values wins.
    f_t(rho_Q) bounds every objective: f_t cannot increase under the
    covariant channel rho_Q -> sigma_S', and the penalty is nonnegative.
    An ascent stops there, and no start after one that reaches it is
    ascended or drawn.
    Every returned attempt is a feasible covariant channel (a lower-bound
    witness for the frontier).  The penalty ascent has no stopping
    certificate, so an attempt makes no claim of convergence.
    """
    dq, dsp = sys_q.dim, sys_sp.dim
    out_sys = tensor_system(sys_q, sys_sp)
    u_t = sys_sp.translation(t)
    eye_q, eye_sp = np.eye(dq), np.eye(dsp)

    def marginals(j):
        """sigma_Q, sigma_S' and the shifted sigma_S' of the broadcast J."""
        joint = apply_choi(j, rho_q.mat)
        joint = (joint + dagger(joint)) / 2
        sig_sp = partial_trace(joint, [dq, dsp], keep=[1])
        return partial_trace(joint, [dq, dsp], keep=[0]), sig_sp, u_t @ sig_sp @ dagger(u_t)

    def evaluate(j, lam):
        sig_q, sig_sp, shifted = marginals(j)
        y = sig_q - rho_q.mat
        y = (y + dagger(y)) / 2
        w = np.linalg.eigvalsh(y)
        smooth_tn = float(np.sum(np.sqrt(w * w + _SMOOTHING * _SMOOTHING)))

        def gradient():
            # d f_t / d sigma_S': both fidelity slots depend on sigma_S'.
            try:
                ga = fidelity_gradient(shifted, sig_sp)
                gb = fidelity_gradient(sig_sp, shifted)
                grad_sp = -(ga + dagger(u_t) @ gb @ u_t)
            except SingularTarget:
                grad_sp = np.zeros((dsp, dsp), dtype=np.complex128)
            # d smooth_tn / d sigma_Q = phi(y)
            phi = hermitian_function(y, lambda w: w / np.sqrt(w * w + _SMOOTHING * _SMOOTHING))
            grad_x = tensor_product(eye_q, grad_sp) - lam * tensor_product(phi, eye_sp)
            return tensor_product(grad_x, rho_q.mat.T)

        return 1.0 - fidelity_arrays(sig_sp, shifted) - lam * smooth_tn, gradient

    # Fixed feasible starts: keep-and-prepare (marginal preserving) and,
    # where S' holds a shifted copy of Q, move-and-refill (coherence
    # forwarding).  Exploration only pays off before the warm-start chain
    # exists; a random start is drawn only when it is reached.
    keep = choi_from_map(lambda m: tensor_product(m, eye_sp / dsp), dq, out_sys.dim)
    fixed = [keep]
    iota = _embedding(sys_q, sys_sp)
    if iota is not None:
        fixed.append(
            choi_from_map(
                lambda m: tensor_product(eye_q / dq, iota @ m @ dagger(iota)), dq, out_sys.dim
            )
        )
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    draws = (random_covariant_channel(sys_q, out_sys, rng).choi for _ in range(cfg.restarts))
    starts = chain(fixed, draws)

    ceiling = measure_ft(rho_q, sys_q, t)
    attempts: list[BroadcastAttempt] = []
    for lam in lambda_schedule:
        objective = partial(evaluate, lam=lam)
        j = _best_ascent(starts, objective, sys_q, out_sys, cfg.max_iter, ceiling)[0]
        starts = [j, keep]
        sig_q, sig_sp, shifted = marginals(j)
        attempts.append(
            BroadcastAttempt(
                map=Channel(sys_q, out_sys, j),
                marginal_disturbance=0.5 * trace_norm(sig_q - rho_q.mat),
                output_coherence=float(min(1.0, max(0.0, 1.0 - fidelity_arrays(sig_sp, shifted)))),
                lam=float(lam),
            )
        )
    return attempts
