"""Constrained optimization over covariant channels.

Three optimizers share one geometric core, project_covariant_tp_psd: the
Euclidean projection onto covariant, trace-preserving, PSD Choi matrices.
It dephases once across the sectors of the covariance generator
K = H_out (x) I - I (x) H_in^T, which is exact because the target set
lies in the covariant subspace.  In the eigenbasis of K the dephased
matrix is block diagonal, and the projection is X = [J + I (x) Y]_+,
clipped block by block, where Y solves the dual semidefinite
least-squares problem of Malick (SIAM J. Matrix Anal. Appl. 26, 2004) by
the semismooth Newton method of Qi & Sun (SIAM J. Matrix Anal. Appl. 28,
2006).  The dual gradient is the TP residual Tr_out X - I, so the result
is PSD and covariant by construction and trace preserving to the Newton
tolerance.

The recovery-fidelity maximization is a concave objective on a convex
set, so projected gradient ascent with backtracking converges to the
global maximum, and the Frank-Wolfe duality gap (Jaggi, ICML 2013) at
any feasible point bounds how far below the maximum it is.  The ascent
stops once that gap is within tolerance, and reports it: the achieved
fidelity F gives an upper bound 1 - F^2 on the irreversibility, and
F + gap a lower bound 1 - (F + gap)^2.  Checks that irreversibility is
small read the first; the degradation demo and the tradeoff relation,
which need irreversibility to be large, read the second.

Matrix inverses are regularized at eps = 1e-10; each regularized call is
logged through the standard logging module.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NoConvergence, SingularPrior, SingularTarget
from .linalg import (
    dagger,
    fidelity_arrays,
    hermitian_function,
    max_abs,
    partial_trace,
    psd_sqrt,
    tensor_product,
    trace_norm,
)
from .qtypes import (
    Channel,
    DensityMatrix,
    SystemSpec,
    adjoint_apply_choi,
    apply_choi,
    choi_from_map,
    tensor_system,
)
from .symmetry import CovarianceSector, random_covariant_channel
from .tolerances import TOL_RANK

logger = logging.getLogger(__name__)

REG_EPS = 1e-10

# The broadcast penalty ||sigma_Q - rho_Q||_1 is smoothed to
# sum_i sqrt(w_i^2 + _SMOOTHING^2) over the eigenvalues w_i.
_SMOOTHING = 1e-6

# A recovery is certified converged when its duality gap is at most the
# tolerance plus this roundoff: the gap subtracts traces of order one,
# each rounded at about 1e-16 per matrix entry.
_GAP_ROUNDOFF = 1e-12

# Dual-Newton projection: TP residual ||Tr_out X - I||_F to reach, per unit
# of the largest input entry, and the step cap.  The line search halves at
# most _MAX_HALVINGS times and forgives a rise of the dual value up to its
# roundoff, _ROUNDOFF per unit of the largest entry; the Newton system gets
# a ridge of min(_RIDGE, residual).
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 50
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
    "petz_recovery",
    "optimize_broadcast",
    "DEFAULT_LAMBDA_SCHEDULE",
]

DEFAULT_LAMBDA_SCHEDULE = (0.0, 1.0, 4.0, 16.0, 64.0, 256.0)


@dataclass(frozen=True)
class OptimizerConfig:
    max_iter: int = 2000
    tol: float = 1e-8
    restarts: int = 1
    seed: int = 0


@dataclass(frozen=True, eq=False)
class IrrevResult:
    """Outcome of the covariant-recovery maximization.

    value = 1 - F^2 for the best fidelity F achieved, an upper bound on the
    irreversibility; the fidelity trace is nondecreasing (monotone ascent
    under backtracking) and ends at F.  gap bounds the optimum from above,
    F* <= F + gap (inf when no certificate exists), so irrev_lower is a
    lower bound.  converged means gap <= cfg.tol + _GAP_ROUNDOFF.
    """

    value: float
    best_recovery: Channel
    fidelity_trace: tuple[tuple[int, float], ...]
    converged: bool
    gap: float

    @property
    def fidelity(self) -> float:
        return self.fidelity_trace[-1][1]

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
    converged: bool


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
    Armijo line search drives the residual below NEWTON_TOL per unit of
    the largest entry of J~.  The start Y0 = (I - Tr_out J~) / d_out is
    the Newton step from Y = 0, so J = 0 lands on I (x) I / d_out at once.
    X is PSD and covariant by construction.  Raises NoConvergence with the
    final residual if the line search stalls or NEWTON_MAX_ITER is spent.
    """
    basis = CovarianceSector.for_channel(out_sys, in_sys).basis
    jt = (dagger(basis) @ np.asarray(j, dtype=np.complex128) @ basis).ravel()
    tr_e, layout = _dual_layout(in_sys.spectrum, out_sys.spectrum)
    n = tr_e.size
    # Reading off the sector blocks is the dephasing.  Blocks of equal size
    # are stacked, so each size costs one batched eigh.
    blocks = []
    for flat, e in layout:
        jb = jt[flat].reshape(len(flat), e.shape[-1], e.shape[-1])
        blocks.append(((jb + dagger(jb)) / 2, e))
    # Eigenvalues of the blocks, and so X and the dual value, carry
    # roundoff in proportion to the largest entry.
    scale = max(1.0, max(max_abs(jb) for jb, _ in blocks))
    tol = NEWTON_TOL * scale

    def components(e, xb):
        """<I (x) E_k, X> summed over a stack of blocks."""
        return np.real(np.einsum("gkij,gij->k", e.conj(), xb))

    def evaluate(y):
        """Dual value, gradient and the block eigendecompositions at y."""
        theta = -float(y @ tr_e)
        grad = -tr_e
        eigs = []
        for jb, e in blocks:
            w, q = np.linalg.eigh(jb + np.einsum("k,gkij->gij", y, e))
            wp = np.maximum(w, 0.0)
            xb = (q * wp[:, None, :]) @ dagger(q)
            theta += 0.5 * float(np.sum(wp * wp))
            grad = grad + components(e, xb)
            eigs.append((w, q, xb))
        return theta, grad, eigs

    def jacobian(eigs):
        """Generalized Jacobian of the gradient, in the commutant basis."""
        v = np.zeros((n, n))
        for (_, e), (w, q, _) in zip(blocks, eigs):
            pos = w >= 0
            wp = np.maximum(w, 0.0)
            mixed = pos[:, :, None] != pos[:, None, :]
            den = np.where(mixed, w[:, :, None] - w[:, None, :], 1.0)
            both = pos[:, :, None] & pos[:, None, :]
            omega = np.where(mixed, (wp[:, :, None] - wp[:, None, :]) / den, both)
            amat = dagger(q)[:, None] @ e @ q[:, None]
            v += np.real(np.einsum("gkij,gij,glij->kl", amat.conj(), omega, amat))
        return v

    marg = sum(components(e, jb) for jb, e in blocks)
    y = (tr_e - marg) / out_sys.dim
    theta, grad, eigs = evaluate(y)
    res = float(np.linalg.norm(grad))
    steps = 0
    while res > tol:
        if steps == NEWTON_MAX_ITER:
            raise NoConvergence(
                f"dual-Newton projection took {steps} steps (TP residual {res:.3e})",
                residual=res,
            )
        steps += 1
        ridge = min(_RIDGE, res) * np.eye(n)
        step = np.linalg.solve(jacobian(eigs) + ridge, -grad)
        slope = float(grad @ step)
        slack = _ROUNDOFF * scale * (1.0 + abs(theta))
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = evaluate(y + alpha * step)
            if trial[0] <= theta + _ARMIJO * alpha * slope + slack:
                break
            alpha *= 0.5
        else:
            raise NoConvergence(
                f"dual-Newton projection stalled (TP residual {res:.3e})", residual=res
            )
        y = y + alpha * step
        theta, grad, eigs = trial
        res = float(np.linalg.norm(grad))
    xt = np.zeros_like(jt)
    for (flat, _), (_, _, xb) in zip(layout, eigs):
        xt[flat] = xb.reshape(flat.shape)
    x = basis @ xt.reshape(basis.shape) @ dagger(basis)
    return (x + dagger(x)) / 2


@lru_cache(maxsize=32)
def _dual_layout(in_spectrum: tuple[int, ...], out_spectrum: tuple[int, ...]):
    """Sector layout of the dual problem; depends on the two spectra only.

    Returns (Tr E_k, groups) for an orthonormal basis E_k of the Hermitian
    matrices that commute with diag(in_spectrum).  Each group stacks the
    eigenvalue sectors of K of one block size m: the flat indices (g, m*m)
    of their blocks in the Choi matrix in the sector basis, and the
    restrictions (g, n, m, m) of I (x) E_k to them.  Sector-basis index
    a * d_in + b carries the label out_spectrum[a] - in_spectrum[b], as in
    CovarianceSector.
    """
    di, do = len(in_spectrum), len(out_spectrum)
    units = []
    for b in range(di):
        unit = np.zeros((di, di), dtype=np.complex128)
        unit[b, b] = 1.0
        units.append(unit)
        for c in range(b + 1, di):
            if in_spectrum[b] == in_spectrum[c]:
                for phase in (1.0, 1j):
                    unit = np.zeros((di, di), dtype=np.complex128)
                    unit[b, c] = phase * np.sqrt(0.5)
                    unit[c, b] = np.conj(unit[b, c])
                    units.append(unit)
    units = np.array(units)
    labels = np.subtract.outer(out_spectrum, in_spectrum).ravel()
    by_size = {}
    for lab in np.unique(labels):
        idx = np.flatnonzero(labels == lab)
        a, b = np.divmod(idx, di)
        e = units[:, b[:, None], b[None, :]] * (a[:, None] == a[None, :])
        flat = (idx[:, None] * (do * di) + idx[None, :]).ravel()
        by_size.setdefault(idx.size, []).append((flat, e))
    groups = tuple(
        (np.array([f for f, _ in members]), np.array([e for _, e in members]))
        for members in by_size.values()
    )
    tr_e = np.real(np.trace(units, axis1=1, axis2=2))
    # Every caller shares these arrays.
    for arr in [tr_e] + [arr for group in groups for arr in group]:
        arr.setflags(write=False)
    return tr_e, groups


def fidelity_gradient(rho_target: DensityMatrix, x: DensityMatrix | np.ndarray) -> np.ndarray:
    """Gradient G of X -> Fid(rho, X): Fid(rho, X + delta) ~ Fid + Tr(G delta).

    G = (1/2) sqrt(rho) (sqrt(rho) X sqrt(rho))^{-1/2} sqrt(rho) with the
    inverse square root taken on the support; near-singular targets are
    ridge-regularized at eps = 1e-10 and SingularTarget is raised when the
    retained spectrum is conditioned worse than 1e14.
    """
    x_mat = x.mat if isinstance(x, DensityMatrix) else np.asarray(x, dtype=np.complex128)
    root = psd_sqrt(rho_target.mat)
    mid = root @ x_mat @ root
    mid = (mid + dagger(mid)) / 2
    w = np.linalg.eigvalsh(mid)
    if w[0] < REG_EPS:
        logger.info("fidelity_gradient: ridge-regularizing target with eps=%g", REG_EPS)
        mid = mid + REG_EPS * np.eye(mid.shape[0])

    def inv_sqrt(wk):
        cond = float(wk[-1] / wk[0]) if wk.size else float("inf")
        if cond > 1e14:
            raise SingularTarget(f"sqrt(rho) X sqrt(rho) condition number {cond:.3e} exceeds 1e14")
        return 1.0 / np.sqrt(wk)

    g = 0.5 * (root @ hermitian_function(mid, inv_sqrt, TOL_RANK) @ root)
    return (g + dagger(g)) / 2


def _ascend(
    j0: np.ndarray,
    objective,
    gradient,
    in_sys: SystemSpec,
    out_sys: SystemSpec,
    cfg: OptimizerConfig,
    gap=None,
):
    """Projected gradient ascent with backtracking; returns (J, trace, value, gap).

    With a gap function (J, gradient at J) -> bound on the optimum minus
    the objective at J, the ascent stops once that bound is at most cfg.tol
    and returns the bound at the final J.  Without one it stops when the
    relative rise falls below cfg.tol, and the returned gap is inf, as it
    is when the gradient raises SingularTarget.  Either way it also stops
    when no step rises or after cfg.max_iter steps.
    """
    j = project_covariant_tp_psd(j0, in_sys, out_sys)
    val = objective(j)
    trace = [(0, val)]
    step = 1.0
    width = math.inf
    # With a gap function, one more gradient certifies the last step's J.
    for it in range(1, cfg.max_iter + 1 + (gap is not None)):
        try:
            grad = gradient(j)
        except SingularTarget:
            # No gradient: no step and no certificate.
            width = math.inf
            break
        if gap is not None:
            width = gap(j, grad)
            if width <= cfg.tol or it > cfg.max_iter:
                break
        improved = False
        for _ in range(40):
            cand = project_covariant_tp_psd(j + step * grad, in_sys, out_sys)
            cand_val = objective(cand)
            if cand_val > val:
                improved = True
                break
            step *= 0.5
            if step < 1e-14:
                break
        if not improved:
            break
        rel = (cand_val - val) / max(abs(val), 1e-12)
        j, val = cand, cand_val
        trace.append((it, val))
        step = min(step * 1.5, 1e3)
        if gap is None and 0 <= rel < cfg.tol:
            break
    return j, trace, val, width


def max_recovery_fidelity(
    rho_q: DensityMatrix,
    sigma: DensityMatrix,
    from_sys: SystemSpec,
    to_sys: SystemSpec,
    cfg: OptimizerConfig = OptimizerConfig(),
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
    the gap closes.  nabla carries fidelity_gradient's ridge: it is the
    exact gradient of the ridged fidelity Tr (A + REG_EPS)^{1/2}, with
    A = sqrt(rho) R(sigma) sqrt(rho), so the bound holds to within
    rank(rho) REG_EPS / (2 sqrt(a)) for the smallest eigenvalue a of A on
    the support of rho.
    A target without a gradient (SingularTarget) stops the ascent and
    leaves the result uncertified, with an infinite gap.

    The first start is the identity channel when the spaces match, any
    further one (cfg.restarts) a random covariant channel; the best
    achieved value wins.
    """
    if sigma.dim != from_sys.dim or rho_q.dim != to_sys.dim:
        raise DimensionMismatch("state dimensions do not match the recovery spaces")

    d_out, d_in = to_sys.dim, from_sys.dim
    sigma_t = sigma.mat.T.copy()
    sector = CovarianceSector.for_channel(to_sys, from_sys)
    eye_out = np.eye(d_out)

    def objective(j):
        return fidelity_arrays(rho_q.mat, apply_choi(j, d_out, d_in, sigma.mat))

    def gradient(j):
        out = apply_choi(j, d_out, d_in, sigma.mat)
        g = fidelity_gradient(rho_q, (out + dagger(out)) / 2)
        return tensor_product(g, sigma_t)

    def gap(j, grad):
        g = sector.dephase(grad)
        gj = g @ j
        y0 = partial_trace(gj, [d_out, d_in], keep=[1])
        y0 = (y0 + dagger(y0)) / 2
        shift = float(np.linalg.eigvalsh(g - tensor_product(eye_out, y0))[-1])
        width = float(np.trace(y0).real) + d_in * shift - float(np.trace(gj).real)
        # The exact gap is nonnegative at a feasible J; NaN stays NaN.
        return max(width, 0.0)

    best = None
    for idx, seq in enumerate(np.random.SeedSequence(cfg.seed).spawn(max(1, cfg.restarts))):
        if idx == 0 and d_in == d_out:
            start = sector.dephase(choi_from_map(lambda m: m, d_in, d_out))
        else:
            start = random_covariant_channel(from_sys, to_sys, np.random.default_rng(seq)).choi
        run = _ascend(start, objective, gradient, from_sys, to_sys, cfg, gap)
        if best is None or run[2] > best[2]:
            best = run
    j, trace, val, width = best
    return IrrevResult(
        value=1.0 - val * val,
        best_recovery=Channel(from_sys, to_sys, j),
        fidelity_trace=tuple(trace),
        converged=width <= cfg.tol + _GAP_ROUNDOFF,
        gap=width,
    )


def petz_recovery(ch: Channel, prior: DensityMatrix) -> Channel:
    """Transpose channel of ch with respect to a prior state.

    X -> sqrt(prior) ch†( ch(prior)^{-1/2} X ch(prior)^{-1/2} ) sqrt(prior),
    assembled at the Choi level.  If ch(prior) is rank deficient the map
    is completed on the orthogonal complement by preparing the prior, so
    the result is always trace preserving.  Raises SingularPrior when the
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
            raise SingularPrior("prior has nonpositive eigenvalues after regularization")
        logger.info("petz_recovery: regularizing prior with eps=%g", REG_EPS)
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


def optimize_broadcast(
    rho_q: DensityMatrix,
    sys_q: SystemSpec,
    sys_sp: SystemSpec,
    t: float,
    lambda_schedule=DEFAULT_LAMBDA_SCHEDULE,
    cfg: OptimizerConfig = OptimizerConfig(max_iter=400),
) -> list[BroadcastAttempt]:
    """Frontier of covariant broadcast attempts Q -> Q (x) S'.

    For each penalty lam, ascends measure_ft(sigma_S', t)
    - lam * ||sigma_Q - rho_Q||_1 over covariant Choi matrices by
    (sub)gradient ascent with a smoothed trace norm, warm-starting each
    penalty from the previous solution plus fixed feasible seeds; the
    first penalty also starts from cfg.restarts random covariant channels,
    drawn in turn from one generator seeded with cfg.seed.  Every
    returned attempt is a feasible covariant channel (a lower-bound
    witness for the frontier).  Its converged flag is always True: the
    penalty ascent has no stopping certificate, so a point that did not
    converge is not flagged.
    """
    dq, dsp = sys_q.dim, sys_sp.dim
    out_sys = tensor_system(sys_q, sys_sp)
    u_t = sys_sp.translation(t)

    def marginals(j):
        joint = apply_choi(j, out_sys.dim, dq, rho_q.mat)
        joint = (joint + dagger(joint)) / 2
        sig_q = partial_trace(joint, [dq, dsp], keep=[0])
        sig_sp = partial_trace(joint, [dq, dsp], keep=[1])
        return sig_q, sig_sp

    def smooth_tn(y):
        w = np.linalg.eigvalsh((y + dagger(y)) / 2)
        return float(np.sum(np.sqrt(w * w + _SMOOTHING * _SMOOTHING)))

    def ft_term(sig_sp):
        shifted = u_t @ sig_sp @ dagger(u_t)
        return 1.0 - fidelity_arrays(sig_sp, shifted)

    def objective_factory(lam):
        def objective(j):
            sig_q, sig_sp = marginals(j)
            return ft_term(sig_sp) - lam * smooth_tn(sig_q - rho_q.mat)

        return objective

    def gradient_factory(lam):
        def gradient(j):
            sig_q, sig_sp = marginals(j)
            shifted = u_t @ sig_sp @ dagger(u_t)
            return _broadcast_gradient(
                rho_q, sig_q, sig_sp, shifted, u_t, lam, dq, dsp
            )

        return gradient

    # Fixed feasible seeds: keep-and-prepare (marginal preserving) and,
    # when the dimensions allow, move-and-refill (coherence forwarding).
    eye_q = np.eye(dq, dtype=np.complex128)
    keep_seed = choi_from_map(
        lambda m: tensor_product(m, np.eye(dsp, dtype=np.complex128) / dsp), dq, out_sys.dim
    )
    seeds_fixed = [keep_seed]
    if dq == dsp:
        move_seed = choi_from_map(
            lambda m: tensor_product(eye_q / dq, m), dq, out_sys.dim
        )
        seeds_fixed.append(move_seed)

    attempts: list[BroadcastAttempt] = []
    warm = None
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    for pos, lam in enumerate(lambda_schedule):
        objective = objective_factory(lam)
        gradient = gradient_factory(lam)
        starts = []
        if warm is not None:
            starts.append(warm)
        starts.append(keep_seed)
        if pos == 0:
            # Exploration only pays off before the warm-start chain exists.
            starts.extend(seeds_fixed[1:])
            starts.extend(
                random_covariant_channel(sys_q, out_sys, rng).choi for _ in range(cfg.restarts)
            )
        best = None
        for start in starts:
            j, _, val, _ = _ascend(start, objective, gradient, sys_q, out_sys, cfg)
            if best is None or val > best[1]:
                best = (j, val)
        j = best[0]
        warm = j
        sig_q, sig_sp = marginals(j)
        attempts.append(
            BroadcastAttempt(
                map=Channel(sys_q, out_sys, j),
                marginal_disturbance=0.5 * trace_norm(sig_q - rho_q.mat),
                output_coherence=float(min(1.0, max(0.0, ft_term(sig_sp)))),
                lam=float(lam),
                converged=True,
            )
        )
    return attempts


def _broadcast_gradient(rho_q, sig_q, sig_sp, shifted, u_t, lam, dq, dsp):
    """Gradient of the broadcast objective with respect to the Choi matrix."""
    # d f_t / d sigma_S' : both fidelity slots depend on sigma_S'.
    try:
        ga = fidelity_gradient(DensityMatrix(_renorm(shifted)), _renorm(sig_sp))
        gb = fidelity_gradient(DensityMatrix(_renorm(sig_sp)), _renorm(shifted))
        grad_sp = -(ga + dagger(u_t) @ gb @ u_t)
    except SingularTarget:
        grad_sp = np.zeros((dsp, dsp), dtype=np.complex128)
    # d smooth-trace-norm / d sigma_Q with phi(y) = y / sqrt(y^2 + _SMOOTHING^2).
    y = (sig_q - rho_q.mat + dagger(sig_q - rho_q.mat)) / 2
    phi = hermitian_function(y, lambda w: w / np.sqrt(w * w + _SMOOTHING * _SMOOTHING))
    grad_x = tensor_product(np.eye(dq), grad_sp) - lam * tensor_product(
        phi, np.eye(dsp)
    )
    return tensor_product(grad_x, rho_q.mat.T)


def _renorm(m: np.ndarray) -> np.ndarray:
    m = (m + dagger(m)) / 2
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > 1e-12 and tr > 0:
        m = m / tr
    return hermitian_function(m, _unit_trace_clip)


def _unit_trace_clip(w: np.ndarray) -> np.ndarray:
    w = np.maximum(w, 0.0)
    s = float(np.sum(w))
    return w / s if s > 0 else w
