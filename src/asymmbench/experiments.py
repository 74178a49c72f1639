"""Theorem-verification experiments assembled from the lower modules.

Each runner returns one Outcome, (records, assertions): flat records
(one CSV row each) and the named assertions with their witnesses.  A
failed assertion means an implementation defect, never a
counterexample: every claim checked here is proven.  The runners return
failed assertions like passed ones and never raise them; the caller (the
CLI's exit code, a test) decides what a failure means.

EXPERIMENTS, at the end, is the one table of batch experiments: each
entry gives an experiment's config fields, its CSV columns and its
runner, and the CLI and the report writer read everything from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, ParseError, PreconditionFailed, SizeCap
from .ki import (
    ehrenfest_constancy_check,
    ki_decompose,
    lemma4_reduced_form_check,
    orbit_family,
)
from .linalg import (
    commutator,
    dagger,
    max_abs,
    partial_trace,
    symmetric_subspace_projector,
    tensor_product,
    trace_norm,
)
from .optimize import (
    DEFAULT_LAMBDA_SCHEDULE,
    OptimizerConfig,
    max_recovery_fidelity,
    optimize_broadcast,
)
from .qtypes import (
    Channel,
    DensityMatrix,
    StateFamily,
    SystemSpec,
    apply_channel,
    apply_choi,
    check_density,
    choi_from_map,
    cyclic_shift_system,
    induce_channel,
    random_density_matrix,
    tensor_system,
)
from .symmetry import (
    is_covariant_channel,
    is_symmetric_state,
    measure_ft,
    skew_information,
    time_translate,
    twirl_channel,
)

__all__ = [
    "Experiment",
    "EXPERIMENTS",
    "Assertion",
    "Outcome",
    "ClonerResult",
    "run_no_broadcast_sweep",
    "run_tradeoff_sweep",
    "run_degradation_demo",
    "run_nonadditivity",
    "universal_cloner",
    "cloner_marginal",
    "cloner_shrink_factor",
    "check_fidelity_perturbation_lemma",
    "check_broadcast_complementarity",
    "twirled_partial_swap",
    "clone_in_basis_channel",
    "DISTURBANCE_BUCKETS",
]

DISTURBANCE_BUCKETS = (1e-2, 1e-3, 1e-4, 1e-5)

# Assertion bounds and sizes.  Every claim checked here is proven, so these
# are fixed: a looser bound or a smaller sweep could only hide a defect.
_COHERENCE_TOL = 1e-4  # output coherence in the smallest disturbance bucket
_LEMMA4_DISTURBANCE = 1e-6  # marginal disturbance of the attempt Lemma 4 is checked on
# Residual of Lemma 4's block-state fit of the S' marginals: zero at zero
# disturbance D, and at most sqrt(D (1 - D)) on the exact qubit frontier at |+>.
_LEMMA4_RESIDUAL_TOL = math.sqrt(_LEMMA4_DISTURBANCE)
_CLASSICAL_REGISTER_SIZE = 2  # cyclic-shift register of the classical control
_DEGRADATION_TOL = 1e-6  # certified irreversibility of a degraded frame
_CLONER_N_CAP = 64  # largest n the cloner super-additivity sweep tries
_VIOLATION_MARGIN = 1e-9  # how far a measure must beat additivity to count
_CLONER_TOL = 1e-10  # cloner marginal against its closed form
_COMPLEMENTARITY_TOL = 1e-9  # identity marginal; the erasure fit gets 10x
# Size caps, refused with SizeCap before any array is built.  A
# complementarity map A -> S (x) A has a d^3 x d^3 Choi matrix; at d = 10
# a run peaks near 100 MB.  A lemma8 run keeps O(d^2) entries per trial of
# dimension d; at d = 8 and 10,000 trials it peaks near 180 MB, so trials
# times the largest d^2 is capped at that product.
_COMPLEMENTARITY_DIM_CAP = 10
_LEMMA8_DIM_CAP = 8
_LEMMA8_ENTRY_CAP = 10_000 * _LEMMA8_DIM_CAP**2

# Defaults shared by the runners' signatures and the registry's field specs.
_DEFAULT_T = math.pi / 2  # shift of the fidelity-based measure
_DEFAULT_T_GRID = (math.pi / 4, math.pi / 2, 3 * math.pi / 4)
_LEMMA8_TRIALS = 10_000
_LEMMA8_DIMS = (2, 3, 4)
_SWEEP_OPTIMIZER = OptimizerConfig(max_iter=200)


@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    witness: float


# What every runner returns: flat records and named assertions.
Outcome = tuple[tuple[dict, ...], tuple[Assertion, ...]]


# ---------------------------------------------------------------------------
# No-broadcasting sweep


def run_no_broadcast_sweep(
    rho_q: DensityMatrix,
    sys_q: SystemSpec,
    sys_sp: SystemSpec,
    *,
    t: float = _DEFAULT_T,
    lambda_schedule: Sequence[float] = DEFAULT_LAMBDA_SCHEDULE,
    optimizer: OptimizerConfig = _SWEEP_OPTIMIZER,
) -> Outcome:
    """Broadcast-frontier sweep plus the decomposition cross-checks.

    Optimizes covariant broadcast attempts at shift t over the penalty
    schedule, one record per attempt, and asserts that the smallest
    achieved disturbance bucket has output coherence at most
    _COHERENCE_TOL = 1e-4.  The decomposition of the sampled orbit (see
    orbit_family) supplies the mechanism checks: block populations are
    constant along the orbit and, on the least disturbing attempt, Lemma
    4's reduced form fits the S' marginals within _LEMMA4_RESIDUAL_TOL =
    1e-3 and its block states are symmetric.  Both Lemma 4 checks fail,
    with the smallest disturbance as witness, when no attempt reaches
    _LEMMA4_DISTURBANCE = 1e-6.

    The classical control, always run, is a cyclic-shift configuration
    register of _CLASSICAL_REGISTER_SIZE = 2 levels with a point state and a
    clone-in-the-configuration-basis map: covariant for the discrete shift
    subgroup (witness reported), it broadcasts with zero disturbance at
    full output coherence, which is exactly the behavior the continuous
    group forbids.
    """
    sym = is_symmetric_state(rho_q, sys_q)
    if sym.ok:
        raise PreconditionFailed(
            f"input state is symmetric (max |[rho, H]| = {sym.witness:.3e}); "
            "the sweep needs an asymmetric state"
        )
    attempts = optimize_broadcast(rho_q, sys_q, sys_sp, t, lambda_schedule, optimizer)

    bucket_coherence = math.inf  # stays when no attempt reaches any bucket
    for bucket in sorted(DISTURBANCE_BUCKETS):  # ascending: tightest first
        members = [a for a in attempts if a.marginal_disturbance <= bucket]
        if members:
            bucket_coherence = max(a.output_coherence for a in members)
            break
    assertions = [
        Assertion(
            "smallest_bucket_coherence", bucket_coherence <= _COHERENCE_TOL, bucket_coherence
        )
    ]

    fam = orbit_family(rho_q, sys_q)
    dec = ki_decompose(fam)
    t_grid = [2 * math.pi * j / 16 for j in range(16)]
    ehrenfest = ehrenfest_constancy_check(dec, rho_q, sys_q, t_grid)
    assertions.append(Assertion("ehrenfest_constancy", ehrenfest <= 1e-7, ehrenfest))

    best = min(attempts, key=lambda a: a.marginal_disturbance)
    if best.marginal_disturbance <= _LEMMA4_DISTURBANCE:
        reduced = lemma4_reduced_form_check(best.map, fam, dec)
        block_witness = 0.0
        for state in reduced.block_states:
            block_witness = max(
                block_witness, max_abs(commutator(state, sys_sp.hamiltonian))
            )
        assertions += [
            Assertion(
                "lemma4_reduced_form",
                reduced.residual <= _LEMMA4_RESIDUAL_TOL,
                reduced.residual,
            ),
            Assertion("reduced_block_states_symmetric", block_witness <= 1e-6, block_witness),
        ]
    else:  # no attempt to check Lemma 4 on: both checks fail
        assertions += [
            Assertion(name, False, best.marginal_disturbance)
            for name in ("lemma4_reduced_form", "reduced_block_states_symmetric")
        ]

    assertions += _classical_control(t)

    records = tuple(
        {
            "lambda": a.lam,
            "marginal_disturbance": a.marginal_disturbance,
            "output_coherence": a.output_coherence,
        }
        for a in attempts
    )
    return records, tuple(assertions)


def clone_in_basis_channel(register: SystemSpec) -> Channel:
    """Measure in the configuration basis and reprepare both outputs.

    Clones every point distribution of the register; covariant for the
    discrete shift subgroup but not for the full continuous group, which
    is the entire content of the classical loophole.
    """
    n = register.dim
    out_sys = tensor_system(register, register)

    def clone(x):
        out = np.zeros((n * n, n * n), dtype=np.complex128)
        for m in range(n):
            unit = np.zeros((n, n), dtype=np.complex128)
            unit[m, m] = 1.0
            out += x[m, m] * tensor_product(unit, unit)
        return out

    return Channel(register, out_sys, choi_from_map(clone, n, n * n))


def _classical_control(t: float) -> list[Assertion]:
    n = _CLASSICAL_REGISTER_SIZE
    register = cyclic_shift_system(n)
    point = DensityMatrix.pure([1.0] + [0.0] * (n - 1))
    sym = is_symmetric_state(point, register)
    ch = clone_in_basis_channel(register)

    # Discrete covariance: the clone map commutes with the shift itself.
    witness_disc = 0.0
    for j in range(1, n):
        tj = 2 * math.pi * j / n
        u_in = register.translation(tj)
        u_out = ch.output.translation(tj)
        for a in range(n):
            for b in range(n):
                unit = np.zeros((n, n), dtype=np.complex128)
                unit[a, b] = 1.0
                lhs = apply_choi(ch.choi, u_in @ unit @ dagger(u_in))
                rhs = u_out @ apply_choi(ch.choi, unit) @ dagger(u_out)
                witness_disc = max(witness_disc, max_abs(lhs - rhs))

    joint = apply_channel(ch, point)
    sig_q = partial_trace(joint.mat, [n, n], keep=[0])
    sig_sp = DensityMatrix(partial_trace(joint.mat, [n, n], keep=[1]))
    disturbance = 0.5 * trace_norm(sig_q - point.mat)
    coherence = measure_ft(sig_sp, register, t)
    ceiling = measure_ft(point, register, t)

    # The sampled orbit at the discrete group times is a commuting family.
    orbit = [time_translate(point, register, 2 * math.pi * j / n) for j in range(n)]
    commuting_witness = max(
        max_abs(commutator(a.mat, b.mat)) for a in orbit for b in orbit
    )

    return [
        Assertion("classical_point_state_asymmetric", not sym.ok, sym.witness),
        Assertion("classical_disturbance", disturbance <= 1e-8, disturbance),
        Assertion(
            "classical_full_coherence", abs(coherence - ceiling) <= 1e-9, abs(coherence - ceiling)
        ),
        Assertion("classical_discrete_covariance", witness_disc <= 1e-10, witness_disc),
        Assertion("classical_commuting_orbit", commuting_witness <= 1e-12, commuting_witness),
    ]


# ---------------------------------------------------------------------------
# Tradeoff sweep


def run_tradeoff_sweep(
    psi: DensityMatrix,
    sys_q: SystemSpec,
    sys_sp: SystemSpec,
    *,
    t_grid: Sequence[float] = _DEFAULT_T_GRID,
    lambda_schedule: Sequence[float] = DEFAULT_LAMBDA_SCHEDULE,
    optimizer: OptimizerConfig = _SWEEP_OPTIMIZER,
) -> Outcome:
    """Tradeoff between broadcast coherence and recovery irreversibility.

    For each shift t in t_grid (rows with f_t(psi) = 1 are skipped, as the
    bound's denominator vanishes) and each penalty, records
    ft_output = f_t(sigma_S') against rhs = 4 sqrt(irrev_lower) / (1 - f_t(psi)),
    with irrev_lower the certified lower bound on the irreversibility
    (irrev, the achieved upper bound, is recorded beside it), and
    asserts slack = rhs - ft_output >= -1e-6 on converged rows, those whose
    recovery certificate closed; the assertion fails when no row
    converged, which includes a sweep whose every shift
    was skipped.  f_t is monotone under covariant channels, so every row
    must have ft_output <= ft_input + 1e-9 (the witness is the largest
    excess; this fails too when there is no row).  Rows that come out
    essentially reversible must also carry
    essentially no output coherence (the reversible limit of the bound).
    The last assertion always passes; its witness counts the skipped shifts.
    Raises PreconditionFailed unless psi is pure (top eigenvalue >= 1 - 1e-9)
    and asymmetric: a symmetric psi has f_t(psi) = 0, and so has every
    covariant output, so the bound would hold by construction.
    """
    top = float(np.linalg.eigvalsh(psi.mat)[-1])
    if top < 1.0 - 1e-9:
        raise PreconditionFailed(f"tradeoff input state is not pure (top eigenvalue {top:.6g})")
    sym = is_symmetric_state(psi, sys_q)
    if sym.ok:
        raise PreconditionFailed(
            f"tradeoff input state is symmetric (max |[psi, H]| = {sym.witness:.3e}); "
            "the sweep needs an asymmetric state"
        )
    rows: list[dict] = []
    skipped = 0
    for t in t_grid:
        ft_in = measure_ft(psi, sys_q, t)
        if ft_in >= 1.0 - 1e-12:
            skipped += 1
            continue
        attempts = optimize_broadcast(psi, sys_q, sys_sp, t, lambda_schedule, optimizer)
        for att in attempts:
            joint = apply_channel(att.map, psi)
            sig_q = DensityMatrix(
                partial_trace(joint.mat, [sys_q.dim, sys_sp.dim], keep=[0])
            )
            irr = max_recovery_fidelity(psi, sig_q, sys_q, sys_q, optimizer.max_iter)
            rhs = 4.0 * math.sqrt(irr.irrev_lower) / (1.0 - ft_in)
            rows.append(
                {
                    "t": float(t),
                    "ft_input": ft_in,
                    "ft_output": att.output_coherence,
                    "irrev": irr.value,
                    "irrev_lower": irr.irrev_lower,
                    "rhs": rhs,
                    "slack": rhs - att.output_coherence,
                    "converged": irr.converged,
                }
            )

    # An unconverged row checks nothing: when no row converged the assertion
    # fails, with the worst unconverged slack (0.0 if there is no row at all)
    # as its witness.
    converged = [r["slack"] for r in rows if r["converged"]]
    worst_slack = min(converged or [r["slack"] for r in rows], default=0.0)
    # f_t is monotone under covariant channels, so no row may carry more
    # coherence to S' than psi has, beyond roundoff.
    excess = max((r["ft_output"] - r["ft_input"] for r in rows), default=0.0)
    assertions = [
        Assertion("tradeoff_slack", worst_slack >= -1e-6 and bool(converged), worst_slack),
        Assertion("output_coherence_within_input", excess <= 1e-9 and bool(rows), excess),
    ]
    reversible_violation = 0.0
    for r in rows:
        if r["irrev"] <= 1e-8:
            bound = 4.0 * math.sqrt(1e-8) / (1.0 - r["ft_input"]) + 1e-9
            reversible_violation = max(reversible_violation, r["ft_output"] - bound)
    assertions += [
        Assertion("reversible_rows_symmetric", reversible_violation <= 0.0, reversible_violation),
        Assertion("rows_skipped_at_full_shift", True, float(skipped)),
    ]
    return tuple(rows), tuple(assertions)


# ---------------------------------------------------------------------------
# Degradation demo


def twirled_partial_swap(sys_a: SystemSpec, sys_b: SystemSpec, angle: float) -> Channel:
    """Group average of the partial-swap unitary on two equal systems.

    U = cos(angle) I + i sin(angle) SWAP; the twirl makes the joint
    channel covariant while leaving it entangling enough to degrade a
    coherent first input.
    """
    if sys_a.dim != sys_b.dim:
        raise DimensionMismatch("partial swap needs equal dimensions")
    d = sys_a.dim
    swap = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            swap[j * d + i, i * d + j] = 1.0
    u = math.cos(angle) * np.eye(d * d) + 1j * math.sin(angle) * swap
    joint = tensor_system(sys_a, sys_b)
    raw = Channel(joint, joint, choi_from_map(lambda m: u @ m @ dagger(u), d * d, d * d))
    return twirl_channel(raw)


def run_degradation_demo(
    lam: Channel,
    rho_q: DensityMatrix,
    sys_q: SystemSpec,
    sys_s: SystemSpec,
    max_iter: int = OptimizerConfig.max_iter,
    probe: DensityMatrix | None = None,
) -> Outcome:
    """Asymmetry degradation: a non-covariant induced map costs recovery fidelity.

    Checks the joint channel lam on Q (x) S (onto itself, as the partial
    swap) is covariant, forms the induced map on S, and, when that map is
    not covariant, measures the irreversibility of the first system's
    state conversion with the probe (default maximally mixed) on S.  The
    assertion is that the certified lower bound on that irreversibility
    exceeds _DEGRADATION_TOL = 1e-6 with a converged recovery optimizer of
    at most max_iter steps; a covariant induced map yields no degradation
    claim, and its record reads converged false, as no recovery ran.
    """
    cov = is_covariant_channel(lam)
    if not cov.ok:
        raise PreconditionFailed(
            f"joint channel is not covariant (max |[J, K]| = {cov.witness:.3e})"
        )
    induced = induce_channel(lam, rho_q, sys_s)
    verdict = is_covariant_channel(induced)

    assertions = []
    irrev_lower = 0.0
    irrev_converged = False
    if not verdict.ok:
        if probe is None:
            probe = DensityMatrix.maximally_mixed(sys_s.dim)
        joint_in = DensityMatrix(tensor_product(rho_q.mat, probe.mat))
        out = apply_channel(lam, joint_in)
        sigma_qp = DensityMatrix(
            partial_trace(out.mat, [sys_q.dim, sys_s.dim], keep=[0])
        )
        irr = max_recovery_fidelity(rho_q, sigma_qp, sys_q, sys_q, max_iter)
        irrev_lower = irr.irrev_lower
        irrev_converged = irr.converged
        assertions.append(
            Assertion(
                "degradation_positive",
                irrev_converged and irrev_lower > _DEGRADATION_TOL,
                irrev_lower,
            )
        )
    record = {
        "induced_covariant": verdict.ok,
        "induced_witness": verdict.witness,
        "irrev_lower_bound": irrev_lower,
        "converged": irrev_converged,
    }
    return (record,), tuple(assertions)


# ---------------------------------------------------------------------------
# Universal cloner and non-additivity


def cloner_shrink_factor(d: int, n: int) -> float:
    """Shrink factor of the n-output symmetric-subspace cloner: (d+n)/(n(d+1))."""
    return (d + n) / (n * (d + 1))


def cloner_marginal(rho: np.ndarray, n: int) -> np.ndarray:
    """Closed-form single-output marginal c_n rho + (1 - c_n) I/d, d = rho's side."""
    d = rho.shape[0]
    c = cloner_shrink_factor(d, n)
    return c * rho + (1.0 - c) * np.eye(d) / d


@dataclass(frozen=True, eq=False)
class ClonerResult:
    d: int
    n: int
    trace_error: float
    marginal_error: float

    @property
    def shrink(self) -> float:
        return cloner_shrink_factor(self.d, self.n)


def _clone(m: np.ndarray, proj: np.ndarray, n: int) -> np.ndarray:
    """The cloner (d/d(n)) P (m (x) I^(n-1)) P, with P = proj the symmetric projector."""
    d = m.shape[0]
    big = m
    for _ in range(n - 1):
        big = tensor_product(big, np.eye(d))
    return (d / math.comb(d + n - 1, n)) * (proj @ big @ proj)


def universal_cloner(rho: DensityMatrix, n: int) -> ClonerResult:
    """Symmetric-subspace cloner E(rho) = (d/d(n)) P (rho (x) I^(n-1)) P.

    Verifies unit trace and that each single-system marginal equals the
    closed form c_n rho + (1 - c_n) I/d with c_n = (d+n)/(n(d+1)).  A
    dimension below 2 raises PreconditionFailed: the only 1 x 1 state is
    [[1]], which every cloner and the closed form return.
    """
    d = rho.dim
    if d < 2:
        raise PreconditionFailed(f"cloner needs dimension >= 2, got {d}")
    if n > 4 or d**n > 1024:
        raise SizeCap("explicit cloner capped at n <= 4 and d^n <= 1024")
    joint = _clone(rho.mat, symmetric_subspace_projector(d, n), n)
    trace_error = abs(float(np.trace(joint).real) - 1.0)

    marginal = partial_trace(joint, [d, d ** (n - 1)], keep=[0])
    marginal_error = max_abs(marginal - cloner_marginal(rho.mat, n))
    return ClonerResult(d=d, n=n, trace_error=trace_error, marginal_error=marginal_error)


def run_nonadditivity(t: float = _DEFAULT_T) -> Outcome:
    """Three constructions showing a faithful asymmetry measure is neither
    sub-additive nor super-additive.

    (a) A maximally entangled two-qubit state whose joint asymmetry is
        positive while both marginals are maximally mixed (sub-additivity
        fails with entanglement).
    (b) A classical register correlated with shifted copies of a coherent
        qubit: the register marginal commutes with its trivial generator
        exactly and the system marginal is fully dephased, yet the joint
        is asymmetric (sub-additivity fails without entanglement).
    (c) The cloner marginal sweep: if any faithful measure were
        super-additive, n times the measure of the shrunk state would be
        bounded by the measure of the input for all n; the sweep finds
        the smallest n <= _CLONER_N_CAP = 64 violating that.

    (a) and (b) each record a skew-information row and a fidelity-based
    row with shift t, and each is asserted only when both rows violate
    sub-additivity.  At a t where f_t is not faithful on these systems (a
    multiple of pi: the Bell state's energies differ by 2) the f_t row
    cannot be violated, and the assertion fails rather than pass on the
    skew information alone.
    """
    qub = SystemSpec.diagonal([0, 1])

    # (a) entangled sub-additivity violation
    bell = DensityMatrix.pure([1, 0, 0, 1])
    half = DensityMatrix.maximally_mixed(2)

    # (b) classical-register sub-additivity violation (no entanglement)
    plus = DensityMatrix.pure([1, 1])
    diameter = max(qub.spectrum) - min(qub.spectrum)
    n_reg = diameter + 1
    reg_sys = SystemSpec.diagonal([0] * n_reg)
    blocks = []
    for j in range(n_reg):
        tj = 2 * math.pi * j / n_reg
        unit = np.zeros((n_reg, n_reg), dtype=np.complex128)
        unit[j, j] = 1.0
        blocks.append(tensor_product(unit, time_translate(plus, qub, tj).mat))
    sigma_ab = DensityMatrix(sum(blocks) / n_reg)
    marg_a = DensityMatrix(partial_trace(sigma_ab.mat, [n_reg, 2], keep=[0]))
    marg_b = DensityMatrix(partial_trace(sigma_ab.mat, [n_reg, 2], keep=[1]))
    marg_b_commutator = max_abs(commutator(marg_b.mat, qub.hamiltonian))
    marg_a_commutator = max_abs(commutator(marg_a.mat, reg_sys.hamiltonian))

    # (a) and (b) under every measure of the panel.  The measures are looked
    # up at call time, so a rebound measure_ft or skew_information is seen.
    panel = (
        ("skew_information", skew_information),
        (f"fidelity_shift(t={t:g})", lambda rho, sys: measure_ft(rho, sys, t)),
    )
    rows = []
    for construction, *parts in (
        ("EntangledSubadditivity", (bell, tensor_system(qub, qub)), (half, qub), (half, qub)),
        (
            "ClassicalRegisterSubadditivity",
            (sigma_ab, tensor_system(reg_sys, qub)),
            (marg_a, reg_sys),
            (marg_b, qub),
        ),
    ):
        for measure, f in panel:
            f_joint, f_a, f_b = (f(*part) for part in parts)
            rows.append(
                {
                    "construction": construction,
                    "measure": measure,
                    "f_joint": f_joint,
                    "f_margA": f_a,
                    "f_margB_or_n_scaled": f_b,
                    "violated": f_joint > f_a + f_b + _VIOLATION_MARGIN,
                }
            )

    # (c) cloner super-additivity contradiction
    f_input = skew_information(plus, qub)
    smallest_n = None
    for n in range(1, _CLONER_N_CAP + 1):
        marg = DensityMatrix(cloner_marginal(plus.mat, n))
        f_marg = skew_information(marg, qub)
        if n * f_marg > f_input + _VIOLATION_MARGIN:
            smallest_n = n
            rows.append(
                {
                    "construction": "ClonerSuperadditivity",
                    "measure": "skew_information",
                    "f_joint": f_input,
                    "f_margA": f_marg,
                    "f_margB_or_n_scaled": n * f_marg,
                    "violated": True,
                }
            )
            break

    def violated_for_every_measure(name: str, construction: str) -> Assertion:
        # witness: the joint skew information, the construction's first row
        built = [r for r in rows if r["construction"] == construction]
        return Assertion(name, all(r["violated"] for r in built), built[0]["f_joint"])

    assertions = [
        violated_for_every_measure("entangled_subadditivity_violated", "EntangledSubadditivity"),
        violated_for_every_measure(
            "classical_register_subadditivity_violated", "ClassicalRegisterSubadditivity"
        ),
        Assertion(
            "register_marginal_exactly_symmetric",
            marg_a_commutator == 0.0,
            marg_a_commutator,
        ),
        Assertion(
            "dephased_marginal_symmetric",
            marg_b_commutator <= 1e-10,
            marg_b_commutator,
        ),
        Assertion(
            "cloner_superadditivity_violated",
            smallest_n is not None,
            float(smallest_n or -1),
        ),
    ]
    return tuple(rows), tuple(assertions)


# ---------------------------------------------------------------------------
# Fidelity perturbation bound (Monte Carlo)


def check_fidelity_perturbation_lemma(
    rng: np.random.Generator,
    trials: int = _LEMMA8_TRIALS,
    dims: Sequence[int] = _LEMMA8_DIMS,
) -> Outcome:
    """Monte Carlo check of the fidelity perturbation bound.

    |Fid(U tau1 U†, tau1) - Fid(U tau2 U†, tau2)| <= 4 sqrt(1 - Fid(tau1, tau2))
    on random state pairs and translations U = e^{-iHs}: one record of the
    worst lhs - rhs per sampled d, asserted <= 1e-9 with every d sampled.
    Before any draw, a d below 2 raises PreconditionFailed (every 1 x 1
    state is [[1]], so every violation would be 0); a d above
    _LEMMA8_DIM_CAP, or trials x d^2 above _LEMMA8_ENTRY_CAP, raises SizeCap.
    """
    if trials < 1:
        raise PreconditionFailed(f"lemma8 needs at least one trial, got {trials}")
    if min(dims) < 2:
        raise PreconditionFailed(f"lemma8 needs dimensions >= 2, got {min(dims)}")
    if max(dims) > _LEMMA8_DIM_CAP:
        raise SizeCap(f"lemma8 capped at dimension {_LEMMA8_DIM_CAP}")
    if trials * max(dims) ** 2 > _LEMMA8_ENTRY_CAP:
        raise SizeCap(
            f"lemma8 capped at trials times the largest d^2 <= {_LEMMA8_ENTRY_CAP}, "
            f"got {trials} x {max(dims)}^2"
        )
    # Each trial's index into dims, so a repeated entry keeps its weight.
    drawn = np.asarray(dims)[rng.integers(len(dims), size=trials)]
    per_dim = {
        d: float(np.max(_perturbation_violations(rng, d, n)))
        for d in sorted(set(dims))
        if (n := int(np.count_nonzero(drawn == d)))
    }
    worst = max(per_dim.values())
    records = tuple({"dim": d, "max_violation": v} for d, v in per_dim.items())
    return records, (
        Assertion("perturbation_bound", worst <= 1e-9 and len(per_dim) == len(set(dims)), worst),
    )


def _perturbation_violations(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """lhs - rhs of the perturbation bound on n trials of dimension d.

    Draws the ranks (2, n), one standard_normal((2, 3, n, d, d)) (the real
    and imaginary parts of the tau1, tau2 and H-eigenbasis factors), then
    the spectra (n, d) and the shifts (n,), and hands the unit-norm factors
    and the translations u = e^{-iHs} to _perturbation_sides.
    """
    ranks = rng.integers(1, d + 1, size=(2, n))
    re_im = rng.standard_normal((2, 3, n, d, d))
    spec, s = rng.integers(-3, 4, size=(n, d)), rng.uniform(0.0, 2 * math.pi, size=n)
    # A d x d Gaussian with its columns from r on zeroed has the law of a d x r one.
    re_im[:, :2] *= np.arange(d) < ranks[:, :, None, None]
    g = re_im[0] + 1j * re_im[1]
    del re_im  # the draws are freed before the arithmetic, which sets the peak
    f = g[:2] / np.linalg.norm(g[:2], axis=(-2, -1), keepdims=True)  # tau = f f† has trace 1
    q = np.linalg.qr(g[2])[0]
    del g
    u = (q * np.exp(-1j * spec * s[:, None])[:, None, :]) @ dagger(q)
    lhs, rhs = _perturbation_sides(f, u)
    return lhs - rhs


def _perturbation_sides(f: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of the perturbation bound for tau_i = f_i f_i† and unitaries u.

    f stacks the factors of tau1 and tau2, shape (2, n, d, d), each of unit
    Frobenius norm; u has shape (n, d, d).  Each tau is checked as a state.
    The fidelities come from the factors by Uhlmann's theorem,
    Fid(A A†, B B†) = ||A† B||_1, so no square root is taken:
    Fid(tau1, tau2) = ||f1† f2||_1, and u f purifies u tau u†, so
    Fid(u tau u†, tau) = ||f† u† f||_1 = ||f† u f||_1 (an adjoint keeps the
    singular values).  A square root's Hermitian and PSD checks on
    u tau u† are not needed: they hold for any unitary u once tau passes.
    """
    fh = dagger(f)
    check_density(f @ fh)
    fid_moved = np.clip(trace_norm(fh @ u @ f), 0.0, 1.0)
    fid_pair = np.clip(trace_norm(fh[0] @ f[1]), 0.0, 1.0)
    lhs = np.abs(fid_moved[0] - fid_moved[1])
    return lhs, 4.0 * np.sqrt(np.maximum(0.0, 1.0 - fid_pair))


# ---------------------------------------------------------------------------
# Universal broadcast complementarity


def check_broadcast_complementarity(ch: Channel) -> Outcome:
    """If a broadcast map A -> S (x) A reproduces A exactly, S gets a constant.

    Tests whether the A-marginal equals the identity channel within
    _COMPLEMENTARITY_TOL = 1e-9; when it does, fits the best constant
    channel to the S-marginal and asserts the fit residual is at most ten
    times that, 1e-8.  For imperfect marginals the verdict only reports.
    """
    da = ch.input.dim
    if ch.output.dim % da:
        raise DimensionMismatch("broadcast output does not factor as S (x) A")
    ds = ch.output.dim // da
    marg_a = partial_trace(ch.choi, [ds, da * da], keep=[1])
    ident = choi_from_map(lambda m: m, da, da)
    identity_deviation = max_abs(marg_a - ident)
    identity_marginal = identity_deviation <= _COMPLEMENTARITY_TOL

    # S-marginal Choi: trace out the A output factor only.
    j6 = ch.choi.reshape(ds, da, da, ds, da, da)  # (s, a_out, a_in | s, a_out, a_in)
    j_s = np.einsum("sabtad->sbtd", j6).reshape(ds * da, ds * da)
    tau = partial_trace(j_s, [ds, da], keep=[0]) / da
    tau = (tau + dagger(tau)) / 2
    erasure_residual = max_abs(j_s - tensor_product(tau, np.eye(da)))

    assertions = []
    if identity_marginal:
        passed = erasure_residual <= 10 * _COMPLEMENTARITY_TOL
        assertions.append(Assertion("erasure_on_complement", passed, erasure_residual))
    record = {
        "identity_marginal": identity_marginal,
        "identity_deviation": identity_deviation,
        "erasure_residual": erasure_residual,
    }
    return (record,), tuple(assertions)


# ---------------------------------------------------------------------------
# Experiment registry


@dataclass(frozen=True)
class Experiment:
    """A batch experiment: config fields, CSV columns and runner.

    fields maps each config key to its spec: a "type" the CLI checks and
    parses, a "default" or "required", and optionally "choices".
    run(values, seed) takes the parsed values with defaults filled in
    (matrix fields as DensityMatrix, system fields as SystemSpec, None
    where a state or system is not given) and returns (records,
    assertions), every record keyed by exactly the columns.  A failed
    assertion is returned, never raised.  The runners call the public
    functions above through module globals, so anything that rebinds
    those names (a tracer) sees every call.  check(values) is the
    cross-field check: it raises ParseError for values the runner cannot
    use together, such as fields that must share one dimension.
    """

    name: str
    fields: dict[str, dict]
    columns: tuple[str, ...]
    run: Callable[[dict, int], Outcome]
    check: Callable[[dict], None] = lambda values: None


# What the runners use for an unset state and an unset system.
_PLUS = DensityMatrix.pure([1.0, 1.0])
_QUBIT = SystemSpec.diagonal([0, 1])


def _dims(p: dict, *keys: str) -> dict[str, int]:
    """Dimensions of the named fields, defaulted as the runners do; an unset probe is skipped."""
    defaults = {key: _QUBIT for key in keys if key.startswith("system")} | {"state": _PLUS}
    objs = {key: p[key] or defaults.get(key) for key in keys}
    return {key: obj.dim for key, obj in objs.items() if obj is not None}


def _same_dim(*groups: dict[str, int]) -> None:
    """Raise ParseError unless the fields of each {field: dimension} group agree."""
    for group in groups:
        if len(set(group.values())) > 1:
            dims = ", ".join(f"{key} {dim}" for key, dim in group.items())
            raise ParseError(f"fields must share one dimension (defaults included): {dims}")


def _faithful_t(p: dict) -> None:
    """Refuse a nonadditivity shift t at which f_t cannot show the Bell violation.

    The Bell state's energies differ by 2, so f_t(Bell) = 1 - |cos t|: it
    vanishes at every multiple of pi, where f_t is not faithful on that
    asymmetric state.  Within 1 - |cos t| <= _VIOLATION_MARGIN (|t - k pi|
    below about 4.5e-5) the fidelity row cannot beat the margin, and the
    entangled assertion would fail by construction.
    """
    t = p["t"]
    if 1.0 - abs(math.cos(t)) <= _VIOLATION_MARGIN:
        raise ParseError(
            f"field 't' = {t:g} has 1 - |cos t| <= {_VIOLATION_MARGIN:g}: near a multiple "
            "of pi f_t is not faithful on the Bell state"
        )


def _check_ki(p: dict) -> None:
    """A states list replaces the orbit of state under system_q: either beside it is refused."""
    if p["states"] is None:
        _same_dim(_dims(p, "state", "system_q"))
    elif p["state"] is not None or p["system_q"] is not None:
        raise ParseError(
            "'states' replaces the orbit of 'state' under 'system_q': give neither beside it"
        )
    else:
        _same_dim({f"states[{i}]": s.dim for i, s in enumerate(p["states"])})


def _run_no_broadcast(p: dict, seed: int) -> Outcome:
    state, sys_q, sys_sp = p["state"] or _PLUS, p["system_q"] or _QUBIT, p["system_s_out"] or _QUBIT
    return run_no_broadcast_sweep(
        state,
        sys_q,
        sys_sp,
        t=p["t"],
        lambda_schedule=p["lambda_schedule"],
        optimizer=replace(_SWEEP_OPTIMIZER, seed=seed, **p["optimizer"]),
    )


def _run_tradeoff(p: dict, seed: int) -> Outcome:
    # Pure within 1e-9 (checked at parse time): sweep its top eigenvector's projector.
    _, evecs = np.linalg.eigh((p["state"] or _PLUS).mat)
    v = evecs[:, -1]
    return run_tradeoff_sweep(
        DensityMatrix(np.outer(v, v.conj())),
        p["system_q"] or _QUBIT,
        p["system_s_out"] or _QUBIT,
        t_grid=p["t_grid"],
        lambda_schedule=p["lambda_schedule"],
        optimizer=replace(_SWEEP_OPTIMIZER, seed=seed, **p["optimizer"]),
    )


def _run_degradation(p: dict, seed: int) -> Outcome:
    sys_q, sys_s = p["system_q"] or _QUBIT, p["system_s"] or _QUBIT
    max_iter = OptimizerConfig(**p["optimizer"]).max_iter
    lam = twirled_partial_swap(sys_q, sys_s, p["angle"])
    state, probe = p["state"] or _PLUS, p["probe"]
    return run_degradation_demo(lam, state, sys_q, sys_s, max_iter, probe)


def _run_nonadditivity(p: dict, seed: int) -> Outcome:
    return run_nonadditivity(p["t"])


def _run_irrev(p: dict, seed: int) -> Outcome:
    res = max_recovery_fidelity(
        p["state"] or _PLUS,
        p["target"],
        p["system_from"] or _QUBIT,
        p["system_to"] or _QUBIT,
        OptimizerConfig(**p["optimizer"]).max_iter,
    )
    records = tuple({"iteration": it, "fidelity": val} for it, val in res.fidelity_trace)
    return records, (Assertion("irrev_converged", res.converged, res.value),)


def _run_ki(p: dict, seed: int) -> Outcome:
    if p["states"] is not None:
        states = tuple(p["states"])
        fam = StateFamily(states, tuple(f"s{i}" for i in range(len(states))))
    else:
        fam = orbit_family(p["state"] or _PLUS, p["system_q"] or _QUBIT)
    # The decomposition's validation is the reconstruction check (exit 3).
    dec = ki_decompose(fam)
    records = tuple(
        {"block": mu, "m": blk.m, "k": blk.k, "reconstruction_residual": dec.residual}
        for mu, blk in enumerate(dec.blocks)
    )
    return records, ()


def _run_cloner(p: dict, seed: int) -> Outcome:
    rng = np.random.default_rng(seed)
    records = []
    worst = 0.0
    for d in p["d_list"]:
        for n in range(1, p["n_max"] + 1):
            try:
                results = [universal_cloner(DensityMatrix.maximally_mixed(d), n)]
            except SizeCap:
                break  # both caps grow with n, so every larger n is refused too
            for _ in range(p["trials_per_case"]):
                rho = random_density_matrix(d, int(rng.integers(1, d + 1)), rng)
                results.append(universal_cloner(rho, n))
            marginal_error = max(r.marginal_error for r in results)
            worst = max(worst, marginal_error)
            records.append(
                {
                    "d": d,
                    "n": n,
                    "shrink": results[0].shrink,
                    "trace_error": max(r.trace_error for r in results),
                    "marginal_error": marginal_error,
                }
            )
    return tuple(records), (Assertion("cloner_marginal_formula", worst <= _CLONER_TOL, worst),)


def _run_lemma8(p: dict, seed: int) -> Outcome:
    rng = np.random.default_rng(seed)
    return check_fidelity_perturbation_lemma(rng, p["trials"], tuple(p["dims"]))


# The complementarity experiment's broadcast maps A -> S (x) A, by mode,
# each built once for the dimension d.
_BROADCAST_MAPS = {
    "identity_prepare": lambda d: lambda m: tensor_product(np.eye(d) / d, m),
    "move": lambda d: lambda m: tensor_product(m, np.eye(d) / d),
    "cloner": lambda d: partial(_clone, proj=symmetric_subspace_projector(d, 2), n=2),
}


def _run_complementarity(p: dict, seed: int) -> Outcome:
    d = p["dim"]
    if d < 2:
        # Every map of a one-level A is the identity: both checks would pass
        # by construction.
        raise PreconditionFailed(f"complementarity needs dimension >= 2, got {d}")
    if d > _COMPLEMENTARITY_DIM_CAP:
        raise SizeCap(f"complementarity capped at dimension {_COMPLEMENTARITY_DIM_CAP}")
    sys_a = SystemSpec.diagonal(list(range(d)))
    choi = choi_from_map(_BROADCAST_MAPS[p["mode"]](d), d, d * d)
    return check_broadcast_complementarity(Channel(sys_a, tensor_system(sys_a, sys_a), choi))


def _spec(kind: str, default=None, **extra) -> dict:
    return {"type": kind, "default": default, **extra}


EXPERIMENTS: dict[str, Experiment] = {
    e.name: e
    for e in (
        Experiment(
            "no_broadcast",
            {
                "state": _spec("matrix"),
                "system_q": _spec("system"),
                "system_s_out": _spec("system"),
                "t": _spec("number", _DEFAULT_T),
                "lambda_schedule": _spec("number_list", list(DEFAULT_LAMBDA_SCHEDULE)),
                "optimizer": _spec("optimizer", {}),
            },
            ("lambda", "marginal_disturbance", "output_coherence"),
            _run_no_broadcast,
            lambda p: _same_dim(_dims(p, "state", "system_q")),
        ),
        Experiment(
            "tradeoff",
            {
                "state": _spec("pure_state"),
                "system_q": _spec("system"),
                "system_s_out": _spec("system"),
                "t_grid": _spec("number_list", list(_DEFAULT_T_GRID)),
                "lambda_schedule": _spec("number_list", list(DEFAULT_LAMBDA_SCHEDULE)),
                "optimizer": _spec("optimizer", {}),
            },
            ("t", "ft_input", "ft_output", "irrev", "irrev_lower", "rhs", "slack", "converged"),
            _run_tradeoff,
            lambda p: _same_dim(_dims(p, "state", "system_q")),
        ),
        Experiment(
            "degradation",
            {
                "state": _spec("matrix"),
                "system_q": _spec("system"),
                "system_s": _spec("system"),
                "angle": _spec("number", math.pi / 4),
                "probe": _spec("matrix"),
                "optimizer": _spec("optimizer", {}),
            },
            ("induced_covariant", "induced_witness", "irrev_lower_bound", "converged"),
            _run_degradation,
            # The partial swap needs system_q and system_s of one dimension.
            lambda p: _same_dim(_dims(p, "state", "system_q", "system_s", "probe")),
        ),
        Experiment(
            "nonadditivity",
            {
                "t": _spec("number", _DEFAULT_T),
            },
            (
                "construction", "measure", "f_joint", "f_margA", "f_margB_or_n_scaled", "violated"
            ),
            _run_nonadditivity,
            _faithful_t,
        ),
        Experiment(
            "irrev",
            {
                "state": _spec("matrix"),
                "target": _spec("matrix", required=True),
                "system_from": _spec("system"),
                "system_to": _spec("system"),
                "optimizer": _spec("optimizer", {}),
            },
            ("iteration", "fidelity"),
            _run_irrev,
            lambda p: _same_dim(
                _dims(p, "target", "system_from"), _dims(p, "state", "system_to")
            ),
        ),
        Experiment(
            "ki",
            {
                "state": _spec("matrix"),
                "states": _spec("matrix_list"),
                "system_q": _spec("system"),
            },
            ("block", "m", "k", "reconstruction_residual"),
            _run_ki,
            _check_ki,
        ),
        Experiment(
            "cloner",
            {
                "d_list": _spec("int_list", [2, 3]),
                "n_max": _spec("positive_int", 4),
                "trials_per_case": _spec("positive_int", 3),
            },
            ("d", "n", "shrink", "trace_error", "marginal_error"),
            _run_cloner,
        ),
        Experiment(
            "lemma8",
            {
                "trials": _spec("positive_int", _LEMMA8_TRIALS),
                "dims": _spec("int_list", list(_LEMMA8_DIMS)),
            },
            ("dim", "max_violation"),
            _run_lemma8,
        ),
        Experiment(
            "complementarity",
            {
                "mode": _spec("string", "identity_prepare", choices=list(_BROADCAST_MAPS)),
                "dim": _spec("positive_int", 2),
            },
            ("identity_marginal", "identity_deviation", "erasure_residual"),
            _run_complementarity,
        ),
    )
}
